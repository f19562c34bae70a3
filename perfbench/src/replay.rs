//! Replays against layers that `rshare-vds` calls internally: the traced
//! run feeds the workload's own inputs straight to `rshare-core`'s
//! placement engines and `rshare-erasure`'s codec, after checking that
//! the replay computes what the cluster computes.

use std::hint::black_box;
use std::time::Instant;

use rshare_core::{
    Bin, BinId, BinSet, FastRedundantShare, PlacementStrategy, RedundantShare, MAX_INLINE_K,
};
use rshare_erasure::{ErasureCode, ReedSolomon};
use rshare_vds::{DeviceState, StorageCluster};

use crate::gen::Rng;

/// Online-device count from which the cluster is expected to serve
/// placement through the precomputed engine instead of the scan.
pub const FAST_ENGINE_MIN_DEVICES: usize = 64;

/// One of `rshare-core`'s two Redundant Share engines.
pub enum Engine {
    Scan(RedundantShare),
    Fast(FastRedundantShare),
}

impl Engine {
    pub fn label(&self) -> &'static str {
        match self {
            Self::Scan(_) => "scan",
            Self::Fast(_) => "fast",
        }
    }

    fn build(set: &BinSet, k: usize, fast: bool) -> Result<Self, String> {
        let built = if fast {
            FastRedundantShare::new(set, k).map(Self::Fast)
        } else {
            RedundantShare::new(set, k).map(Self::Scan)
        };
        built.map_err(|e| format!("engine build failed: {e}"))
    }

    fn place_inline(&self, ball: u64, out: &mut [BinId; MAX_INLINE_K]) -> usize {
        match self {
            Self::Scan(s) => s.place_into_inline(ball, out),
            Self::Fast(s) => s.place_into_inline(ball, out),
        }
    }

    fn place_batch(&self, balls: &[u64], out: &mut Vec<BinId>) {
        match self {
            Self::Scan(s) => s.place_batch_into(balls, out),
            Self::Fast(s) => s.place_batch_into(balls, out),
        }
    }
}

/// The cluster's online devices as a bin set, in ascending id order (the
/// order the cluster builds its own engine in).
fn online_bins(cluster: &StorageCluster) -> Result<BinSet, String> {
    let bins = cluster
        .device_ids()
        .into_iter()
        .filter_map(|id| cluster.device(id))
        .filter(|d| d.state() == DeviceState::Online)
        .map(|d| Bin::new(d.id(), d.capacity_blocks()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    BinSet::new(bins).map_err(|e| e.to_string())
}

fn reproduces(engine: &Engine, cluster: &StorageCluster, sample: &[u64]) -> bool {
    let mut arr = [BinId(0); MAX_INLINE_K];
    sample.iter().all(|&lba| {
        let n = engine.place_inline(lba, &mut arr);
        let expected = cluster.placement(lba);
        n == expected.len() && arr[..n].iter().zip(&expected).all(|(b, &e)| b.raw() == e)
    })
}

/// Rebuilds the engine the cluster serves placement with, from its online
/// devices and capacities, and checks it reproduces `cluster.placement`
/// on `sample`. The engine the 64-device rule predicts is tried first; if
/// only the other one reproduces the cluster, that one is returned, so the
/// label always names the engine actually in use. Returns the engine, or
/// why neither engine matched.
pub fn cluster_engine(cluster: &StorageCluster, sample: &[u64]) -> Result<Engine, String> {
    let set = online_bins(cluster)?;
    let k = cluster.redundancy().total_shards();
    let expect_fast = set.len() >= FAST_ENGINE_MIN_DEVICES;
    for fast in [expect_fast, !expect_fast] {
        let engine = Engine::build(&set, k, fast)?;
        if reproduces(&engine, cluster, sample) {
            return Ok(engine);
        }
    }
    Err(format!(
        "neither core engine reproduces cluster.placement at {} online devices",
        set.len()
    ))
}

/// Per-call costs of one engine on the workload's addresses.
pub struct CoreTiming {
    pub build_ns: Vec<u64>,
    pub place_ns: f64,
    pub batch_ns_per_block: f64,
}

/// Times building the engine (three builds), single placements and stride-k
/// batch placements over `lbas`.
pub fn time_core(cluster: &StorageCluster, engine: &Engine, lbas: &[u64]) -> CoreTiming {
    let fast = matches!(engine, Engine::Fast(_));
    let k = cluster.redundancy().total_shards();
    let mut build_ns = Vec::new();
    if let Ok(set) = online_bins(cluster) {
        for _ in 0..3 {
            let start = Instant::now();
            let built = Engine::build(&set, k, fast);
            build_ns.push(start.elapsed().as_nanos() as u64);
            black_box(built.is_ok());
        }
    }
    let mut arr = [BinId(0); MAX_INLINE_K];
    let start = Instant::now();
    for &lba in lbas {
        black_box(engine.place_inline(black_box(lba), &mut arr));
    }
    let place_ns = start.elapsed().as_nanos() as f64 / lbas.len().max(1) as f64;
    let mut out = Vec::new();
    let start = Instant::now();
    for chunk in lbas.chunks(4096) {
        engine.place_batch(black_box(chunk), &mut out);
        black_box(out.len());
    }
    let batch_ns_per_block = start.elapsed().as_nanos() as f64 / lbas.len().max(1) as f64;
    CoreTiming {
        build_ns,
        place_ns,
        batch_ns_per_block,
    }
}

/// Per-block costs of the erasure codec on the workload's blocks.
pub struct ErasureTiming {
    pub encode_ns: f64,
    pub encode_bytes_per_s: f64,
    pub reconstruct_ns: f64,
}

/// Encodes each block (a whole number of `data`-shard stripes) under
/// RS(`data`, `parity`), erases two shards per stripe at seeded positions
/// and reconstructs them. Errors unless every stripe round-trips.
pub fn time_erasure(
    data: usize,
    parity: usize,
    blocks: &[Vec<u8>],
    rng: &mut Rng,
) -> Result<ErasureTiming, String> {
    let codec = ReedSolomon::new(data, parity).map_err(|e| e.to_string())?;
    let total = data + parity;
    let stripes: Vec<Vec<&[u8]>> = blocks
        .iter()
        .map(|b| b.chunks_exact(b.len() / data).collect())
        .collect();
    let mut parities: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new(); parity]; blocks.len()];
    // Calls are timed as one run: a single small-block encode is shorter
    // than the clock's own resolution.
    let start = Instant::now();
    for (refs, out) in stripes.iter().zip(&mut parities) {
        codec
            .encode_parity(black_box(refs), out)
            .map_err(|e| e.to_string())?;
    }
    let encode_ns = start.elapsed().as_nanos() as u64;
    let bytes: usize = blocks.iter().map(Vec::len).sum();
    let encoded: Vec<Vec<Vec<u8>>> = stripes
        .iter()
        .zip(parities)
        .map(|(refs, p)| refs.iter().map(|s| s.to_vec()).chain(p).collect())
        .collect();
    let mut damaged: Vec<Vec<Option<Vec<u8>>>> = encoded
        .iter()
        .map(|stripe| {
            let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
            let lost_data = rng.below(data as u64) as usize;
            let lost_other = (lost_data + 1 + rng.below((total - 1) as u64) as usize) % total;
            shards[lost_data] = None;
            shards[lost_other] = None;
            shards
        })
        .collect();
    let start = Instant::now();
    for shards in &mut damaged {
        codec
            .reconstruct(black_box(shards))
            .map_err(|e| e.to_string())?;
    }
    let reconstruct_ns = start.elapsed().as_nanos() as u64;
    let round_trips = damaged.iter().zip(&encoded).all(|(got, want)| {
        got.iter()
            .zip(want)
            .all(|(g, w)| g.as_deref() == Some(w.as_slice()))
    });
    if !round_trips {
        return Err("erasure replay: reconstruct did not restore the encoded stripe".into());
    }
    let n = blocks.len().max(1) as f64;
    Ok(ErasureTiming {
        encode_ns: encode_ns as f64 / n,
        encode_bytes_per_s: bytes as f64 / (encode_ns.max(1) as f64 * 1e-9),
        reconstruct_ns: reconstruct_ns as f64 / n,
    })
}
