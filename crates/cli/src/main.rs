//! `rshare` — command-line explorer for Redundant Share placements.
//!
//! ```text
//! rshare capacity  --capacities 1000,500,300 --k 2
//! rshare place     --capacities 1000,500,300 --k 2 --balls 5
//! rshare fairness  --capacities 1000,500,300 --k 2 --balls 100000
//! rshare movement  --capacities 1000,500,300 --k 2 --add 800 --balls 50000
//! rshare movement  --capacities 1000,500,300 --k 2 --remove 1 --balls 50000
//! ```

mod args;

use args::{ArgError, Args};
use rshare_core::capacity::{is_capacity_efficient, max_balls, optimal_weights};
use rshare_core::{
    Bin, BinId, BinSet, FastRedundantShare, PlacementStrategy, RedundantShare, SystematicPps,
    TrivialReplication,
};
use rshare_vds::{Redundancy, StorageCluster};
use rshare_workload::measure_fairness;
use rshare_workload::movement::measure_movement;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(argv) {
        eprintln!("error: {e}");
        eprintln!("run `rshare help` for usage");
        std::process::exit(1);
    }
}

fn run(argv: Vec<String>) -> Result<(), ArgError> {
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print_help();
        return Ok(());
    }
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "capacity" => cmd_capacity(&args),
        "place" => cmd_place(&args),
        "fairness" => cmd_fairness(&args),
        "movement" => cmd_movement(&args),
        "compare" => cmd_compare(&args),
        "roles" => cmd_roles(&args),
        "durability" => cmd_durability(&args),
        "simulate" => cmd_simulate(&args),
        "metrics" => cmd_metrics(&args),
        "kernels" => cmd_kernels(&args),
        other => Err(ArgError(format!("unknown subcommand '{other}'"))),
    }
}

fn print_help() {
    println!(
        "rshare — fair, redundant, adaptive data placement (ICDCS 2007)\n\
         \n\
         USAGE: rshare <command> [--option value]...\n\
         \n\
         COMMANDS\n\
         capacity  --capacities LIST --k K\n\
         \x20         capacity-efficiency analysis (Lemmas 2.1/2.2)\n\
         place     --capacities LIST --k K [--balls N]\n\
         \x20         print the placements of the first N balls (default 5)\n\
         fairness  --capacities LIST --k K [--balls N]\n\
         \x20         empirical per-bin load versus fair share (default 100000)\n\
         movement  --capacities LIST --k K (--add CAP | --remove INDEX) [--balls N]\n\
         \x20         copies replaced by a membership change (default 50000)\n\
         roles     --capacities LIST --k K\n\
         \x20         analytic per-copy (sub-block role) distribution\n\
         compare   --capacities LIST --k K [--balls N]\n\
         \x20         fairness of every strategy in the workspace side by side\n\
         simulate  --capacities LIST [--blocks N]\n\
         \x20         run a mirrored cluster through load / grow / fail / rebuild\n\
         metrics   --capacities LIST [--blocks N] [--fail ID]\n\
         \x20         load a mirrored cluster, optionally fail a device, and print\n\
         \x20         the health summary plus the Prometheus metrics exposition\n\
         kernels   [--shard-kib N]\n\
         \x20         report the GF(256) kernel tier the CPU picks (AVX2 or the\n\
         \x20         portable table) and the encode rate of each tier\n\
         durability --capacities LIST --k K --tolerated T [--mtbf H] [--rebuild H]\n\
         \x20         Monte-Carlo 5-year data-loss probability\n\
         \n\
         LIST is comma-separated capacities in blocks, e.g. 1000,500,300;\n\
         bins are named 0..n-1 in the given order."
    );
}

fn bin_set(args: &Args) -> Result<(BinSet, usize), ArgError> {
    let caps = args.capacities()?;
    let k = usize::try_from(args.required_u64("k")?)
        .map_err(|_| ArgError("--k out of range".into()))?;
    let bins = BinSet::from_capacities(caps).map_err(|e| ArgError(e.to_string()))?;
    Ok((bins, k))
}

fn cmd_capacity(args: &Args) -> Result<(), ArgError> {
    let caps = args.capacities()?;
    let k = usize::try_from(args.required_u64("k")?)
        .map_err(|_| ArgError("--k out of range".into()))?;
    let mut sorted = caps.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = sorted.iter().sum();
    println!(
        "bins: {} | total capacity: {total} blocks | k = {k}",
        sorted.len()
    );
    println!(
        "capacity efficient (Lemma 2.1, k·b_max <= B): {}",
        is_capacity_efficient(&sorted, k)
    );
    let weights = optimal_weights(&sorted, k);
    println!("adjusted capacities (Lemma 2.2):");
    for (raw, adj) in sorted.iter().zip(&weights) {
        let note = if (*raw as f64 - adj).abs() > 1e-9 {
            "  (capped)"
        } else {
            ""
        };
        println!("  {raw:>12}  ->  {adj:>14.2}{note}");
    }
    println!("naive bound B/k    : {}", total / k as u64);
    println!("max balls (Lemma 2.2): {}", max_balls(&sorted, k));
    Ok(())
}

fn cmd_place(args: &Args) -> Result<(), ArgError> {
    let (bins, k) = bin_set(args)?;
    let balls = args.u64_or("balls", 5)?;
    let strat = RedundantShare::new(&bins, k).map_err(|e| ArgError(e.to_string()))?;
    println!("ball -> copy placements (bin ids)");
    for ball in 0..balls {
        let placed: Vec<String> = strat
            .place(ball)
            .iter()
            .map(|id| id.raw().to_string())
            .collect();
        println!("{ball:>6} -> [{}]", placed.join(", "));
    }
    Ok(())
}

fn cmd_fairness(args: &Args) -> Result<(), ArgError> {
    let (bins, k) = bin_set(args)?;
    let balls = args.u64_or("balls", 100_000)?;
    let strat = RedundantShare::new(&bins, k).map_err(|e| ArgError(e.to_string()))?;
    let report = measure_fairness(&strat, balls);
    println!(
        "{:>6}  {:>12}  {:>10}  {:>10}",
        "bin", "capacity", "share", "target"
    );
    for (i, bin) in bins.bins().iter().enumerate() {
        println!(
            "{:>6}  {:>12}  {:>10.4}  {:>10.4}",
            bin.id().raw(),
            bin.capacity(),
            report.shares[i],
            report.targets[i]
        );
    }
    println!(
        "max relative deviation over {balls} balls: {:.4}",
        report.max_relative_deviation()
    );
    Ok(())
}

fn cmd_movement(args: &Args) -> Result<(), ArgError> {
    let (bins, k) = bin_set(args)?;
    let balls = args.u64_or("balls", 50_000)?;
    let before = RedundantShare::new(&bins, k).map_err(|e| ArgError(e.to_string()))?;
    let (after_bins, affected) = match (args.optional("add"), args.optional("remove")) {
        (Some(cap), None) => {
            let cap: u64 = cap
                .parse()
                .map_err(|_| ArgError("--add must be a capacity in blocks".into()))?;
            let id = BinId(bins.len() as u64);
            let grown = bins
                .with_bin(Bin::new(id, cap).map_err(|e| ArgError(e.to_string()))?)
                .map_err(|e| ArgError(e.to_string()))?;
            (grown, id)
        }
        (None, Some(idx)) => {
            let id = BinId(
                idx.parse::<u64>()
                    .map_err(|_| ArgError("--remove must be a bin id".into()))?,
            );
            let shrunk = bins.without_bin(id).map_err(|e| ArgError(e.to_string()))?;
            (shrunk, id)
        }
        _ => {
            return Err(ArgError(
                "movement needs exactly one of --add CAP or --remove INDEX".into(),
            ))
        }
    };
    let after = RedundantShare::new(&after_bins, k).map_err(|e| ArgError(e.to_string()))?;
    let report = measure_movement(&before, &after, affected, balls);
    println!("balls examined      : {}", report.balls);
    println!("copies examined     : {}", report.total_copies);
    println!("copies replaced     : {}", report.replaced);
    println!("copies on changed bin: {}", report.used_on_affected);
    println!("replaced / used     : {:.4}", report.factor());
    println!("replaced fraction   : {:.4}", report.replaced_fraction());
    println!("(Lemma 3.2/3.5 bound the factor by 4 for k = 2, k² in general)");
    Ok(())
}

fn cmd_roles(args: &Args) -> Result<(), ArgError> {
    let (bins, k) = bin_set(args)?;
    let strat = RedundantShare::new(&bins, k).map_err(|e| ArgError(e.to_string()))?;
    print!("{:>6}  {:>12}", "bin", "capacity");
    for t in 0..k {
        print!("  {:>8}", format!("copy{t}"));
    }
    println!("  {:>8}", "total");
    let dists: Vec<Vec<f64>> = (0..k).map(|t| strat.copy_distribution(t)).collect();
    for (i, bin) in bins.bins().iter().enumerate() {
        print!("{:>6}  {:>12}", bin.id().raw(), bin.capacity());
        let mut total = 0.0;
        for dist in &dists {
            print!("  {:>8.4}", dist[i]);
            total += dist[i];
        }
        println!("  {total:>8.4}");
    }
    println!("(each copy column sums to 1; totals are the fair shares k·c'_i)");
    Ok(())
}

fn cmd_durability(args: &Args) -> Result<(), ArgError> {
    use rshare_workload::reliability::{simulate, ReliabilityConfig};
    let (bins, k) = bin_set(args)?;
    let tolerated = usize::try_from(args.required_u64("tolerated")?)
        .map_err(|_| ArgError("--tolerated out of range".into()))?;
    let mtbf = args.u64_or("mtbf", 100_000)? as f64;
    let rebuild = args.u64_or("rebuild", 48)? as f64;
    let trials = u32::try_from(args.u64_or("trials", 100)?)
        .map_err(|_| ArgError("--trials out of range".into()))?;
    let strat = RedundantShare::new(&bins, k).map_err(|e| ArgError(e.to_string()))?;
    let config = ReliabilityConfig {
        blocks: 20_000,
        tolerated,
        device_mtbf_hours: mtbf,
        rebuild_hours: rebuild,
        mission_hours: 5.0 * 8_766.0,
    };
    let report = simulate(&strat, config, trials, 0xCAFE);
    println!("devices            : {}", bins.len());
    println!("shards per block   : {k} (tolerates {tolerated} losses)");
    println!("device MTBF        : {mtbf} h; rebuild window: {rebuild} h");
    println!("mission            : 5 years x {trials} trials");
    println!("failures per trial : {:.1}", report.mean_failures);
    println!(
        "data loss          : {}/{} trials (P = {:.4})",
        report.losses,
        report.trials,
        report.loss_probability()
    );
    if let Some(h) = report.mean_hours_to_loss {
        println!("mean time to loss  : {:.0} days", h / 24.0);
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), ArgError> {
    let (bins, k) = bin_set(args)?;
    let balls = args.u64_or("balls", 60_000)?;
    let err = |e: rshare_core::PlacementError| ArgError(e.to_string());
    let strategies: Vec<(&str, Box<dyn PlacementStrategy>)> = vec![
        (
            "redundant share (O(n))",
            Box::new(RedundantShare::new(&bins, k).map_err(err)?),
        ),
        (
            "redundant share (O(k))",
            Box::new(FastRedundantShare::new(&bins, k).map_err(err)?),
        ),
        (
            "trivial k-draws",
            Box::new(TrivialReplication::new(&bins, k).map_err(err)?),
        ),
        (
            "systematic PPS",
            Box::new(SystematicPps::new(&bins, k).map_err(err)?),
        ),
    ];
    println!(
        "{:>24}  {:>14}  {:>10}  {:>8}",
        "strategy", "max deviation", "chi^2", "gini"
    );
    for (name, strat) in &strategies {
        let report = measure_fairness(strat.as_ref(), balls);
        println!(
            "{:>24}  {:>14.4}  {:>10.1}  {:>8.4}",
            name,
            report.max_relative_deviation(),
            report.chi_square(),
            report.gini()
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), ArgError> {
    let caps = args.capacities()?;
    let blocks = args.u64_or("blocks", 10_000)?;
    let mut builder = StorageCluster::builder()
        .block_size(16)
        .redundancy(Redundancy::Mirror { copies: 2 });
    for (i, cap) in caps.iter().enumerate() {
        builder = builder.device(i as u64, *cap);
    }
    let mut cluster = builder.build().map_err(|e| ArgError(e.to_string()))?;
    println!(
        "loading {blocks} mirrored blocks over {} devices…",
        caps.len()
    );
    let payload = [0x42u8; 16];
    for lba in 0..blocks {
        cluster
            .write_block(lba, &payload)
            .map_err(|e| ArgError(format!("load failed at block {lba}: {e}")))?;
    }
    let util = |c: &StorageCluster| {
        for (id, used, cap) in c.utilization() {
            println!(
                "  device {id}: {used}/{cap} blocks ({:.1}%)",
                100.0 * used as f64 / cap as f64
            );
        }
    };
    util(&cluster);

    let new_id = caps.len() as u64;
    let new_cap = *caps.iter().max().expect("non-empty");
    println!(
        "
adding device {new_id} with {new_cap} blocks…"
    );
    let report = cluster
        .add_device(new_id, new_cap)
        .map_err(|e| ArgError(e.to_string()))?;
    println!(
        "  moved {} of {} shards ({:.1}%)",
        report.shards_moved,
        report.shards_total,
        100.0 * report.moved_fraction()
    );
    util(&cluster);

    println!(
        "
crashing device 0 and rebuilding…"
    );
    cluster
        .fail_device(0)
        .map_err(|e| ArgError(e.to_string()))?;
    let report = cluster.rebuild().map_err(|e| ArgError(e.to_string()))?;
    println!(
        "  reconstructed {} shards, moved {}",
        report.shards_reconstructed, report.shards_moved
    );
    let degraded = cluster.scrub().map_err(|e| ArgError(e.to_string()))?;
    println!("  scrub: {degraded} degraded blocks — all data intact");
    util(&cluster);
    Ok(())
}

fn cmd_metrics(args: &Args) -> Result<(), ArgError> {
    let caps = args.capacities()?;
    let blocks = args.u64_or("blocks", 10_000)?;
    let mut builder = StorageCluster::builder()
        .block_size(16)
        .redundancy(Redundancy::Mirror { copies: 2 });
    for (i, cap) in caps.iter().enumerate() {
        builder = builder.device(i as u64, *cap);
    }
    let mut cluster = builder.build().map_err(|e| ArgError(e.to_string()))?;

    // A short workload so every series has moved: write all, read all,
    // and — when asked — fail a device and read through the degradation.
    let payload = [0x42u8; 16];
    for lba in 0..blocks {
        cluster
            .write_block(lba, &payload)
            .map_err(|e| ArgError(format!("load failed at block {lba}: {e}")))?;
    }
    for lba in 0..blocks {
        cluster
            .read_block(lba)
            .map_err(|e| ArgError(e.to_string()))?;
    }
    if let Some(id) = args.optional("fail") {
        let id: u64 = id
            .parse()
            .map_err(|_| ArgError("--fail must be a device id".into()))?;
        cluster
            .fail_device(id)
            .map_err(|e| ArgError(e.to_string()))?;
        for lba in 0..blocks {
            cluster
                .read_block(lba)
                .map_err(|e| ArgError(e.to_string()))?;
        }
    }

    let snap = cluster.health_snapshot();
    println!(
        "devices: {} online, {} failed | blocks: {} | pending: {} | degraded: {}",
        snap.devices_online,
        snap.devices_failed,
        snap.blocks,
        snap.pending_blocks,
        snap.degraded_blocks
    );
    println!(
        "{:>6}  {:>12}  {:>10}  {:>10}  {:>10}",
        "device", "used/cap", "share", "fair", "deviation"
    );
    for d in &snap.fairness.devices {
        println!(
            "{:>6}  {:>12}  {:>10.4}  {:>10.4}  {:>+9.2}%",
            d.device,
            format!("{}/{}", d.used_blocks, d.capacity_blocks),
            d.share,
            d.fair_share,
            100.0 * d.deviation
        );
    }
    println!(
        "max fairness deviation: {:.4} (fair shares: Lemma 2.2 adjusted capacities)\n",
        snap.fairness.max_deviation
    );
    print!("{}", cluster.export_prometheus());
    Ok(())
}

fn cmd_kernels(args: &Args) -> Result<(), ArgError> {
    use rshare_erasure::gf256::{self, KernelTier};
    use rshare_erasure::ReedSolomon;
    use std::time::Instant;

    let shard_kib = args.u64_or("shard-kib", 64)?;
    if shard_kib == 0 || shard_kib > 16_384 {
        return Err(ArgError("--shard-kib must be in 1..=16384".into()));
    }
    let shard_len = (shard_kib as usize) * 1024;

    let yes_no = |b: bool| if b { "yes" } else { "no" };
    println!("GF(256) bulk-kernel dispatch");
    println!("  avx2 support : {}", yes_no(gf256::simd::available()));
    println!("  gfni support : {}", yes_no(gf256::simd::gfni_available()));
    println!("  active tier  : {}", gf256::kernel_tier().name());

    // Per-tier RS(4, 2) parity rate on `--shard-kib` shards: each tier
    // multiplies the data shards by the generator's two parity rows.
    // Tiers are bit-identical; only the throughput differs.
    let rs = ReedSolomon::new(4, 2).map_err(|e| ArgError(e.to_string()))?;
    let data: Vec<Vec<u8>> = (0..4)
        .map(|i| (0..shard_len).map(|j| (i * 89 + j * 7) as u8).collect())
        .collect();
    let rows = &rs.generator().as_slice()[4 * 4..];
    let mut parity = vec![vec![0u8; shard_len]; 2];
    println!("  rs(4,2) encode, {shard_kib} KiB shards:");
    for tier in [KernelTier::Gfni, KernelTier::Simd, KernelTier::Table] {
        let start = Instant::now();
        let reps = 8;
        for _ in 0..reps {
            gf256::mul_rows_with(tier, &mut parity, &data, rows);
        }
        let secs = start.elapsed().as_secs_f64();
        let mb = (reps * 4 * shard_len) as f64 / 1e6;
        let note = match tier {
            KernelTier::Gfni if !gf256::simd::gfni_available() => "  (no GFNI; ran the fallback)",
            KernelTier::Simd if !gf256::simd::available() => "  (no AVX2; ran table)",
            _ => "",
        };
        println!("    {:>5}  {:>9.1} MB/s{note}", tier.name(), mb / secs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<(), ArgError> {
        run(tokens.iter().map(ToString::to_string).collect())
    }

    #[test]
    fn help_runs() {
        run_tokens(&["help"]).unwrap();
        run_tokens(&[]).unwrap();
    }

    #[test]
    fn capacity_command() {
        run_tokens(&["capacity", "--capacities", "1000,500,300", "--k", "2"]).unwrap();
    }

    #[test]
    fn place_and_fairness_commands() {
        run_tokens(&[
            "place",
            "--capacities",
            "1000,500,300",
            "--k",
            "2",
            "--balls",
            "3",
        ])
        .unwrap();
        run_tokens(&[
            "fairness",
            "--capacities",
            "1000,500,300",
            "--k",
            "2",
            "--balls",
            "5000",
        ])
        .unwrap();
    }

    #[test]
    fn movement_commands() {
        run_tokens(&[
            "movement",
            "--capacities",
            "1000,500,300",
            "--k",
            "2",
            "--add",
            "800",
            "--balls",
            "5000",
        ])
        .unwrap();
        run_tokens(&[
            "movement",
            "--capacities",
            "1000,500,300",
            "--k",
            "2",
            "--remove",
            "2",
            "--balls",
            "5000",
        ])
        .unwrap();
    }

    #[test]
    fn compare_and_simulate_commands() {
        run_tokens(&[
            "compare",
            "--capacities",
            "1000,500,300",
            "--k",
            "2",
            "--balls",
            "4000",
        ])
        .unwrap();
        run_tokens(&[
            "simulate",
            "--capacities",
            "2000,2000,2000,2000",
            "--blocks",
            "1500",
        ])
        .unwrap();
    }

    #[test]
    fn durability_command() {
        run_tokens(&[
            "durability",
            "--capacities",
            "1000,1000,1000,1000",
            "--k",
            "2",
            "--tolerated",
            "1",
            "--trials",
            "5",
        ])
        .unwrap();
    }

    #[test]
    fn roles_command() {
        run_tokens(&["roles", "--capacities", "1000,500,300", "--k", "2"]).unwrap();
    }

    #[test]
    fn metrics_command() {
        run_tokens(&[
            "metrics",
            "--capacities",
            "2000,3000,3000",
            "--blocks",
            "800",
        ])
        .unwrap();
        run_tokens(&[
            "metrics",
            "--capacities",
            "2000,3000,3000",
            "--blocks",
            "800",
            "--fail",
            "1",
        ])
        .unwrap();
        assert!(run_tokens(&[
            "metrics",
            "--capacities",
            "2000,3000",
            "--blocks",
            "100",
            "--fail",
            "9"
        ])
        .is_err());
    }

    #[test]
    fn kernels_command() {
        run_tokens(&["kernels", "--shard-kib", "4"]).unwrap();
        assert!(run_tokens(&["kernels", "--shard-kib", "0"]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_tokens(&["bogus"]).is_err());
        assert!(run_tokens(&["movement", "--capacities", "10,10", "--k", "2"]).is_err());
        assert!(run_tokens(&["place", "--capacities", "10", "--k", "3"]).is_err());
    }
}
