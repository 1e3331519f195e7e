//! Engine statistics, including the measurements Table V and Figure 10 use.

use serde::{Deserialize, Serialize};
use tcsm_graph::codec::{CodecError, Decoder, Encoder};

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Stream events processed.
    pub events: u64,
    /// Delta batches processed (0 in serial mode; ≤ `events` in batched
    /// mode — the gap measures how bursty the stream's timestamps are).
    pub batches: u64,
    /// Backtracking nodes visited (recursive `FindMatches` entries). A
    /// counting runtime searches on arrivals only; a materialising one also
    /// on the expirations its expiry ledger has a charge for — so this and
    /// the pruning/clone counters below differ between the two, while
    /// `occurred`/`expired` never do.
    pub search_nodes: u64,
    /// Complete time-constrained embeddings reported (occurred).
    pub occurred: u64,
    /// Expired embeddings reported (read off the expiry ledger by a
    /// counting runtime, enumerated by a materialising one).
    pub expired: u64,
    /// Candidate edges pruned by the Case-1 technique (`R⁻ = ∅` sharing).
    pub pruned_case1: u64,
    /// Candidate edges skipped by the Case-2 chronological break.
    pub pruned_case2: u64,
    /// Candidate edges pruned by temporal failing sets (Case 3).
    pub pruned_case3: u64,
    /// Embeddings re-emitted by Case-1 candidate swapping.
    pub cloned_case1: u64,
    /// Complete embeddings discarded by the post-check (baselines only).
    pub post_check_rejections: u64,
    /// Peak number of DCS edges (pairs admitted by the filter) — Table V.
    pub peak_dcs_edges: u64,
    /// Sum over events of DCS edges, for averaging — Table V.
    pub sum_dcs_edges: u64,
    /// Peak number of `d2` candidate vertices — Table V.
    pub peak_dcs_vertices: u64,
    /// Sum over events of `d2` candidate vertices — Table V.
    pub sum_dcs_vertices: u64,
    /// Filter-phase instance-update rounds that ran on the worker pool
    /// (0 for serial engines).
    pub parallel_filter_rounds: u64,
    /// Delta-batch `FindMatches` sweeps fanned out across the pool.
    pub parallel_sweeps: u64,
    /// Seeds searched under those fanned-out sweeps.
    pub parallel_sweep_seeds: u64,
    /// Eq. (1) kernel invocations (one per contributing child/neighbour in
    /// a filter-table recompute), summed over the four instances.
    pub kernel_invocations: u64,
    /// `TR(u)` lanes folded across those kernel invocations.
    pub kernel_lanes: u64,
    /// Child terms with no contributing neighbour (the recompute bailed —
    /// the entry ceases to exist without running the remaining children).
    pub kernel_early_exits: u64,
    /// True when a budget was exhausted (query counts as unsolved).
    pub budget_exhausted: bool,
}

impl EngineStats {
    /// Average DCS edge count per event.
    pub fn avg_dcs_edges(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.sum_dcs_edges as f64 / self.events as f64
        }
    }

    /// Average `d2` candidate-vertex count per event.
    pub fn avg_dcs_vertices(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.sum_dcs_vertices as f64 / self.events as f64
        }
    }

    /// The algorithmic counters alone: a copy with the thread-placement
    /// counters (`parallel_*`) and the kernel instrumentation zeroed. Two
    /// runs of the same stream differing only in
    /// [`crate::EngineConfig::threads`] must agree on this (the
    /// differential suite compares it across pool widths). The kernel
    /// counters are zeroed too because recompute *counts* legitimately
    /// differ between incremental updates and from-window rebuilds (live
    /// admission) even though the resulting tables are identical.
    ///
    /// Phase timing needs no exclusion here **by design**: durations live
    /// in `tcsm-telemetry`'s per-runtime recorder, never in this struct,
    /// so `semantic()` — and every snapshot byte — is identical at every
    /// `TCSM_TRACE` level.
    pub fn semantic(&self) -> EngineStats {
        EngineStats {
            parallel_filter_rounds: 0,
            parallel_sweeps: 0,
            parallel_sweep_seeds: 0,
            kernel_invocations: 0,
            kernel_lanes: 0,
            kernel_early_exits: 0,
            ..*self
        }
    }

    /// Serializes every counter in declaration order (snapshot format).
    pub fn encode(&self, enc: &mut Encoder) {
        for v in [
            self.events,
            self.batches,
            self.search_nodes,
            self.occurred,
            self.expired,
            self.pruned_case1,
            self.pruned_case2,
            self.pruned_case3,
            self.cloned_case1,
            self.post_check_rejections,
            self.peak_dcs_edges,
            self.sum_dcs_edges,
            self.peak_dcs_vertices,
            self.sum_dcs_vertices,
            self.parallel_filter_rounds,
            self.parallel_sweeps,
            self.parallel_sweep_seeds,
            self.kernel_invocations,
            self.kernel_lanes,
            self.kernel_early_exits,
        ] {
            enc.put_u64(v);
        }
        enc.put_bool(self.budget_exhausted);
    }

    /// Inverse of [`EngineStats::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> Result<EngineStats, CodecError> {
        Ok(EngineStats {
            events: dec.get_u64()?,
            batches: dec.get_u64()?,
            search_nodes: dec.get_u64()?,
            occurred: dec.get_u64()?,
            expired: dec.get_u64()?,
            pruned_case1: dec.get_u64()?,
            pruned_case2: dec.get_u64()?,
            pruned_case3: dec.get_u64()?,
            cloned_case1: dec.get_u64()?,
            post_check_rejections: dec.get_u64()?,
            peak_dcs_edges: dec.get_u64()?,
            sum_dcs_edges: dec.get_u64()?,
            peak_dcs_vertices: dec.get_u64()?,
            sum_dcs_vertices: dec.get_u64()?,
            parallel_filter_rounds: dec.get_u64()?,
            parallel_sweeps: dec.get_u64()?,
            parallel_sweep_seeds: dec.get_u64()?,
            kernel_invocations: dec.get_u64()?,
            kernel_lanes: dec.get_u64()?,
            kernel_early_exits: dec.get_u64()?,
            budget_exhausted: dec.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let s = EngineStats {
            events: 4,
            sum_dcs_edges: 10,
            sum_dcs_vertices: 6,
            ..Default::default()
        };
        assert!((s.avg_dcs_edges() - 2.5).abs() < 1e-12);
        assert!((s.avg_dcs_vertices() - 1.5).abs() < 1e-12);
        assert_eq!(EngineStats::default().avg_dcs_edges(), 0.0);
    }
}
