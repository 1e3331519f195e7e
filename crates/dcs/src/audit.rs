//! DCS invariant auditing (see `tcsm_graph::audit` for the level contract
//! and the violation catalogue).
//!
//! The Cheap tier checks every census the DCS maintains against the slab
//! it summarizes, plus the candidacy subset laws the matcher relies on
//! (`d2 ⊆ d1 ⊆ …` and `d2 ⊆ label_ok` — the precondition behind the
//! matcher's label-free candidate iteration). The Deep tier recomputes
//! `d1`/`d2` as a fixpoint from the multiplicity index and recounts every
//! support counter from the window's neighbourhood lists — the invariant
//! the incremental `DCSInsertion`/`DCSDeletion` worklist must preserve —
//! and checks the adjacency index against the multiplicity slab.

use crate::index::{arrival, End};
use crate::node::Dcs;
use tcsm_graph::{
    AuditLevel, AuditViolation, FxHashMap, PairId, QEdgeId, QueryGraph, VertexId, WindowGraph,
};

impl Dcs {
    /// Appends this DCS's invariant violations to `out`.
    ///
    /// * **Cheap**: `d2_count` equals the `d2` popcount; `d2 ⊆ d1` and
    ///   `d2 ⊆ label_ok`; `live_nodes` equals the number of `(u, v)` nodes
    ///   with a nonzero slot census; each `nonzero_slots[u, v]` equals its
    ///   counter row's actual nonzero count; `mult_groups`/`mult_total`
    ///   equal the multiplicity slab's nonzero-entry count and sum.
    /// * **Deep**: additionally recomputes `d1` (topological fixpoint over
    ///   the multiplicity index) and `d2` (reverse order), compares every
    ///   bit, and recounts every `n1`/`n2` support counter from the
    ///   window's neighbour lists under the fixpoint candidacies; the
    ///   adjacency index must list exactly the groups with nonzero
    ///   multiplicity in strictly sorted rows, each group holding `mult`
    ///   records in arrival order.
    pub fn audit(
        &self,
        q: &QueryGraph,
        g: &WindowGraph,
        level: AuditLevel,
        out: &mut Vec<AuditViolation>,
    ) {
        if !level.enabled() {
            return;
        }
        let n = self.n;
        let nq = self.dag.num_vertices();
        if self.d2_count != self.d2.count_ones() {
            out.push(AuditViolation::new(
                "dcs-d2-census",
                format!(
                    "d2_count {} vs bitmap popcount {}",
                    self.d2_count,
                    self.d2.count_ones()
                ),
            ));
        }
        for (i, (&w2, (&w1, &wl))) in self
            .d2
            .words()
            .iter()
            .zip(self.d1.words().iter().zip(self.label_ok.words()))
            .enumerate()
        {
            if w2 & !w1 != 0 {
                let bit = i * 64 + (w2 & !w1).trailing_zeros() as usize;
                out.push(AuditViolation::new(
                    "dcs-d2-outside-d1",
                    format!("d2 set without d1 at (u{}, v{})", bit / n, bit % n),
                ));
            }
            if w2 & !wl != 0 {
                let bit = i * 64 + (w2 & !wl).trailing_zeros() as usize;
                out.push(AuditViolation::new(
                    "dcs-d2-outside-label",
                    format!(
                        "d2 set where labels mismatch at (u{}, v{})",
                        bit / n,
                        bit % n
                    ),
                ));
            }
        }
        let mut live = 0usize;
        for u in 0..nq {
            let w = self.width[u] as usize;
            for v in 0..n {
                let row = self.row(u, v as VertexId);
                let nonzero = self.counters[row..row + w]
                    .iter()
                    .filter(|&&c| c > 0)
                    .count();
                let stored = self.nonzero_slots[u * n + v] as usize;
                if stored != nonzero {
                    out.push(AuditViolation::new(
                        "dcs-slot-census",
                        format!("nonzero_slots {stored} vs counter row {nonzero} at (u{u}, v{v})"),
                    ));
                }
                if nonzero > 0 {
                    live += 1;
                }
            }
        }
        if self.live_nodes != live {
            out.push(AuditViolation::new(
                "dcs-live-census",
                format!("live_nodes {} vs slab recount {live}", self.live_nodes),
            ));
        }
        let groups = self.mult.iter().filter(|&&m| m != 0).count();
        let total: usize = self.mult.iter().map(|&m| m as usize).sum();
        if self.mult_groups != groups || self.mult_total != total {
            out.push(AuditViolation::new(
                "dcs-mult-census",
                format!(
                    "mult censuses ({}, {}) vs slab recount ({groups}, {total})",
                    self.mult_groups, self.mult_total
                ),
            ));
        }
        if !level.deep() {
            return;
        }
        self.audit_index(g, out);
        // Fixpoint d1 in topological order, then d2 in reverse order — the
        // ground truth the worklist maintenance must track.
        let mut d1 = vec![vec![false; n]; nq];
        for &u in self.dag.topo_order() {
            for v in 0..n as VertexId {
                if q.label(u) != g.label(v) {
                    continue;
                }
                d1[u][v as usize] = self.dag.parents(u).iter().all(|&(e, up)| {
                    (0..n as VertexId).any(|vp| self.mult(g, e, vp, v) > 0 && d1[up][vp as usize])
                });
            }
        }
        let mut d2 = vec![vec![false; n]; nq];
        for &u in self.dag.topo_order().iter().rev() {
            for v in 0..n as VertexId {
                if !d1[u][v as usize] {
                    continue;
                }
                d2[u][v as usize] = self.dag.children(u).iter().all(|&(e, uc)| {
                    (0..n as VertexId).any(|vc| self.mult(g, e, v, vc) > 0 && d2[uc][vc as usize])
                });
            }
        }
        for u in 0..nq {
            for v in 0..n as VertexId {
                if self.d1(u, v) != d1[u][v as usize] {
                    out.push(AuditViolation::new(
                        "dcs-d1",
                        format!(
                            "stored d1 {} vs fixpoint {} at (u{u}, v{v})",
                            self.d1(u, v),
                            d1[u][v as usize]
                        ),
                    ));
                }
                if self.d2(u, v) != d2[u][v as usize] {
                    out.push(AuditViolation::new(
                        "dcs-d2",
                        format!(
                            "stored d2 {} vs fixpoint {} at (u{u}, v{v})",
                            self.d2(u, v),
                            d2[u][v as usize]
                        ),
                    ));
                }
            }
        }
        // Counter recount: each n1 slot counts the distinct parent images
        // connected by an alive DCS edge group whose parent node holds
        // d1; each n2 slot the distinct child images holding d2.
        for u in 0..nq {
            for v in 0..n as VertexId {
                let row = self.row(u, v);
                for (i, &(e, up)) in self.dag.parents(u).iter().enumerate() {
                    let expected = g
                        .neighbors_with_ids(v)
                        .filter(|&(vp, pid, _)| {
                            self.mult_at(pid, e, vp < v) > 0 && d1[up][vp as usize]
                        })
                        .count() as u32;
                    let stored = self.counters[row + i];
                    if stored != expected {
                        out.push(AuditViolation::new(
                            "dcs-counter",
                            format!(
                                "n1 slot {i} (edge {e}) stored {stored} vs recount {expected} \
                                 at (u{u}, v{v})"
                            ),
                        ));
                    }
                }
                let np = self.np[u] as usize;
                for (i, &(e, uc)) in self.dag.children(u).iter().enumerate() {
                    let expected = g
                        .neighbors_with_ids(v)
                        .filter(|&(vc, pid, _)| {
                            self.mult_at(pid, e, v < vc) > 0 && d2[uc][vc as usize]
                        })
                        .count() as u32;
                    let stored = self.counters[row + np + i];
                    if stored != expected {
                        out.push(AuditViolation::new(
                            "dcs-counter",
                            format!(
                                "n2 slot {i} (edge {e}) stored {stored} vs recount {expected} \
                                 at (u{u}, v{v})"
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// The adjacency index against the multiplicity slab: every group with
    /// `mult > 0` is listed in both of its rows under one group id, holds
    /// `mult` records in strictly ascending arrival order, and the rows
    /// and record lists hold nothing else (entry total = two per group,
    /// record total = `mult_total`); each row is non-empty and strictly
    /// ascending.
    fn audit_index(&self, g: &WindowGraph, out: &mut Vec<AuditViolation>) {
        let mut bad = |detail: String| out.push(AuditViolation::new("dcs-adjacency-index", detail));
        for (idx, &m) in self.mult.iter().enumerate().filter(|&(_, &m)| m != 0) {
            let pid = (idx / self.m2) as PairId;
            let (e, tail_lt_head) = ((idx % self.m2) / 2, idx % 2 == 1);
            if pid as usize >= g.pair_slab_len() {
                bad(format!("mult on pair {pid} beyond the window's slab"));
                continue;
            }
            let bucket = g.pair_by_id(pid);
            let (v_tail, v_head) = if tail_lt_head {
                (bucket.a, bucket.b)
            } else {
                (bucket.b, bucket.a)
            };
            let Some(gid) = self.group_of(e, v_tail, v_head) else {
                bad(format!(
                    "tail row (e{e}, v{v_tail}) misses v{v_head} (mult {m})"
                ));
                continue;
            };
            let head_row = self.adjacent(e, End::Head, v_head);
            match head_row.binary_search_by_key(&v_tail, |&(w, _)| w) {
                Ok(pos) if head_row[pos].1 == gid => {}
                Ok(pos) => bad(format!(
                    "head row (e{e}, v{v_head}) lists v{v_tail} under group {} (tail row: {gid})",
                    head_row[pos].1
                )),
                Err(_) => bad(format!(
                    "head row (e{e}, v{v_head}) misses v{v_tail} (mult {m})"
                )),
            }
            let records = self.index.try_records(gid).unwrap_or(&[]);
            if records.len() != m as usize
                || !records.windows(2).all(|w| arrival(&w[0]) < arrival(&w[1]))
            {
                bad(format!(
                    "group (e{e}, v{v_tail}, v{v_head}) holds {} records for mult {m}, \
                     or holds them out of arrival order",
                    records.len()
                ));
            }
        }
        if self.index.num_entries() != 2 * self.mult_groups
            || self.index.num_records() != self.mult_total
        {
            bad(format!(
                "{} row entries and {} records for {} live groups of total multiplicity {}",
                self.index.num_entries(),
                self.index.num_records(),
                self.mult_groups,
                self.mult_total
            ));
        }
        for (e, end, v, row) in self.index.iter() {
            if row.is_empty() || !row.windows(2).all(|w| w[0].0 < w[1].0) {
                bad(format!(
                    "{end:?} row (e{e}, v{v}) is empty or not strictly ascending"
                ));
            }
        }
    }

    /// Does the group `(e, v_tail, v_head)` exist and hold `rec`? The
    /// runtime audit asks this for every pair the bank admits; together
    /// with the record counts checked by [`Dcs::audit`] it pins each
    /// group's records to exactly the admitted data edges. Tolerates a
    /// corrupt index (never panics).
    #[doc(hidden)]
    pub fn group_holds(
        &self,
        e: QEdgeId,
        v_tail: VertexId,
        v_head: VertexId,
        rec: crate::index::Record,
    ) -> bool {
        self.group_of(e, v_tail, v_head)
            .and_then(|gid| self.index.try_records(gid))
            .is_some_and(|records| records.contains(&rec))
    }

    /// Compares the multiplicity slab against an expected recount keyed
    /// `(pair bucket, query edge, tail < head)` — built by the runtime
    /// audit from the alive window and the bank membership (the one
    /// cross-crate invariant neither crate can check alone). Slab entries
    /// absent from the map must be zero; map entries beyond the slab are
    /// pairs the slab never admitted.
    #[doc(hidden)]
    pub fn audit_mult(
        &self,
        expected: &FxHashMap<(PairId, QEdgeId, bool), u32>,
        out: &mut Vec<AuditViolation>,
    ) {
        for (idx, &stored) in self.mult.iter().enumerate() {
            let pair = (idx / self.m2) as PairId;
            let rem = idx % self.m2;
            let (e, orient) = (rem / 2, rem % 2 == 1);
            let want = expected.get(&(pair, e, orient)).copied().unwrap_or(0);
            if stored != want {
                out.push(AuditViolation::new(
                    "dcs-mult",
                    format!(
                        "mult stored {stored} vs window recount {want} \
                         at (pair {pair}, edge {e}, orient {orient})"
                    ),
                ));
            }
        }
        for (&(pair, e, orient), &want) in expected {
            let idx = Dcs::mult_idx(pair, self.m2, e, orient);
            if idx >= self.mult.len() && want > 0 {
                out.push(AuditViolation::new(
                    "dcs-mult",
                    format!(
                        "window recount {want} at (pair {pair}, edge {e}, orient {orient}) \
                         beyond the multiplicity slab"
                    ),
                ));
            }
        }
    }

    /// Corruption hook for the negative-test corpus: bumps one support
    /// counter without the matching slot-census/worklist bookkeeping.
    /// `slot` indexes the full `n1 ++ n2` row (must be `< width[u]`).
    #[doc(hidden)]
    pub fn corrupt_counter(&mut self, u: usize, v: VertexId, slot: usize) {
        assert!(slot < self.width[u] as usize, "slot beyond counter row");
        let row = self.row(u, v);
        self.counters[row + slot] += 1;
    }

    /// Corruption hook for the negative-test corpus: drops the first entry
    /// of some adjacency row (`stale_group = false`) or rewrites its group
    /// id to one the pair does not own (`stale_group = true`), leaving
    /// `mult` untouched. Returns false when the index is empty.
    #[doc(hidden)]
    pub fn corrupt_index(&mut self, stale_group: bool) -> bool {
        // The smallest key, so the corruption does not depend on map order.
        let Some((e, end, v)) = self
            .index
            .iter()
            .map(|(e, end, v, _)| (e, end, v))
            .min_by_key(|&(e, end, v)| (e, end == End::Head, v))
        else {
            return false;
        };
        let row = self
            .index
            .row_mut(e, end, v)
            .expect("key taken from the index");
        if stale_group {
            row[0].1 = row[0].1.wrapping_add(1);
        } else {
            row.remove(0);
        }
        true
    }

    /// Corruption hook for the negative-test corpus: toggles one `d2` bit
    /// without updating `d2_count` or propagating support deltas.
    #[doc(hidden)]
    pub fn corrupt_d2(&mut self, u: usize, v: VertexId) {
        let uv = u * self.n + v as usize;
        let was = self.d2.get(uv);
        self.d2.replace(uv, !was);
    }
}
