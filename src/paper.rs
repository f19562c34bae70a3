//! # Paper-to-code map
//!
//! A section-by-section index from *Dynamic and Redundant Data Placement*
//! (Brinkmann, Effert, Meyer auf der Heide, Scheideler; ICDCS 2007) to this
//! repository. This module contains no code — it is the reproduction's
//! table of contents.
//!
//! ## Section 1 — Introduction
//!
//! | Paper element | Implementation |
//! |---|---|
//! | "block-level storage virtualization … single storage device" | [`crate::storage::StorageCluster`], [`crate::storage::VirtualDisk`] |
//! | "table-based methods are not scalable" | [`crate::placement::TableBased`] (the rejected design, measured in `table_compactness`) |
//! | balls-into-bins model, bins `b_i`, `c_i = b_i / Σ b_j` | [`crate::placement::Bin`], [`crate::placement::BinSet`] |
//! | criteria: capacity efficiency / time efficiency / compactness / adaptivity | `table_capacity_efficiency`, criterion benches, `memory_bytes()` accessors, `measure_movement` |
//! | "x% of the data and the requests" | data: [`crate::workload::measure_fairness`]; requests: the read-copy rotation in [`crate::storage::StorageCluster::read_block`] + `table_request_fairness` |
//!
//! ## Section 1.2 — Previous results
//!
//! | Prior work | Implementation |
//! |---|---|
//! | Consistent hashing (Karger et al. \[8\]) | [`crate::hashing::ConsistentRing`], [`crate::hashing::StatelessConsistent`] |
//! | Share and Sieve (Brinkmann et al. \[2\]) | [`crate::hashing::Share`], [`crate::hashing::Sieve`] |
//! | Linear / logarithmic methods (Schindelhauer & Schomaker \[11\]) | [`crate::hashing::LinearMethod`], [`crate::hashing::LogarithmicMethod`] |
//! | RUSH (Honicky & Miller \[5\]\[6\]) | [`crate::rush::RushP`] |
//! | RAID / EVENODD / RDP \[10\]\[1\]\[3\] | [`crate::erasure::MatrixCode::xor_parity`], [`crate::erasure::EvenOdd`], [`crate::erasure::Rdp`] |
//!
//! ## Section 2 — Limitations of existing strategies
//!
//! | Paper element | Implementation |
//! |---|---|
//! | Lemma 2.1 (capacity-efficiency condition `k·b_0 ≤ B`) | [`crate::placement::capacity::is_capacity_efficient`] |
//! | Lemma 2.1's constructive proof (k-largest-remaining packing) | [`crate::placement::capacity::greedy_pack`] |
//! | Lemma 2.2 / Algorithm 1 (`optimalWeights`, `B_max`) | [`crate::placement::capacity::optimal_weights`], [`crate::placement::capacity::max_balls`] |
//! | Definition 2.3 (trivial replication) | [`crate::placement::TrivialReplication`] |
//! | Lemma 2.4 / Figure 1 (trivial strategy wastes capacity) | `fig1_trivial_waste`, `tests/paper_claims.rs::claim_figure1_trivial_waste` |
//!
//! ## Section 3 — The Redundant Share strategy
//!
//! | Paper element | Implementation |
//! |---|---|
//! | Algorithm 2 (`LinMirror`) + Algorithm 3 (`placeOneCopy`, `b̂`) | [`crate::placement::LinMirror`]; the `b̂` of Equations 2–5 lives in `rshare-core`'s analysis module and is cross-checked against the general calibration |
//! | Lemma 3.1 (perfect fairness) | statistical tests in `rshare-core` + `claim_figure2_linmirror_fairness_across_stages` |
//! | Lemma 3.2 / Corollary 3.3 (4-competitive adaptivity) | [`crate::workload::measure_movement`], `fig3_adaptivity_linmirror`, `table_compactness` (true ratios) |
//! | Figure 2 (fairness across the 8→10→12→10→8 scenario) | [`crate::workload::scenario::paper_scenario`], `fig2_fairness_linmirror` |
//! | Algorithm 4 (k-replication) | [`crate::placement::RedundantShare`] |
//! | Lemma 3.4 (fairness for any k) | `fig4_fairness_k4`, calibration tests |
//! | Lemma 3.5 (k²-competitiveness) | `fig5_adaptivity_k4`, `claim_figure5_k4_adaptivity_shape` |
//! | copy identity ("the i-th of k copies") for erasure codes | [`crate::placement::PlacementStrategy::place`] ordering + [`crate::storage::Redundancy`] |
//! | Section 3.3 (O(k) replication) | [`crate::placement::FastRedundantShare`] |
//!
//! ## Section 4 — Conclusion
//!
//! | Paper element | Implementation |
//! |---|---|
//! | "O(k)-competitive for arbitrary insertions and removals — is this true?" | probed empirically in `table_dynamic_sequence` (cumulative ratio ≈ 1.6 for k = 2) |
//! | "can the time efficiency be significantly reduced with less memory overhead?" | the `memory_bytes()` accessors + `table_compactness` quantify today's trade-off |
//!
//! ## Beyond the paper (documented extensions)
//!
//! * [`crate::placement::SystematicPps`] — an exactly fair, poorly adaptive
//!   oracle used to validate fairness and to show why the paper's scan
//!   construction is needed.
//! * [`crate::erasure::ReedSolomon`], [`crate::erasure::MatrixCode`] (LRC)
//!   — redundancy schemes the storage layer can place thanks to copy
//!   identity.
//! * [`crate::storage::DeviceProfile`] — simulated I/O timing, used to show
//!   when capacity fairness implies completion-time fairness
//!   (`table_makespan`).
//! * [`crate::placement::DomainPlacement`] — failure-domain (rack-aware)
//!   placement composing the paper's machinery hierarchically.
//! * Lazy migration (`add_device_lazy` + `migrate_batch`) and dry-run
//!   [`crate::storage::MigrationPlan`]s — operational faces of computed
//!   placement.
//! * [`crate::workload::reliability`] — Monte-Carlo durability over placed
//!   redundancy groups (`table_durability`), quantifying the paper's
//!   motivation for redundancy.
