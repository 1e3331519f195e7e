//! Incremental DCS maintenance (`DCSInsertion` / `DCSDeletion` of
//! Algorithm 1, following SymBi's counter scheme) over the dense slabs.

use crate::index::End;
use crate::node::Dcs;
use tcsm_filter::DcsDelta;
use tcsm_graph::{QEdgeId, QVertexId, QueryGraph, TemporalEdge, VertexId, WindowGraph};

/// A pending counter adjustment.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Work {
    /// `n1[u, v][slot] += delta` (support from a parent-side change).
    N1 {
        u: QVertexId,
        v: VertexId,
        slot: usize,
        delta: i32,
    },
    /// `n2[u, v][slot] += delta` (support from a child-side change).
    N2 {
        u: QVertexId,
        v: VertexId,
        slot: usize,
        delta: i32,
    },
}

impl Dcs {
    /// Applies one event's or one delta batch's DCS edge deltas (all
    /// additions or all removals — homogeneous, because arrival events/
    /// batches only add pairs and expiration ones only remove them).
    ///
    /// `g` is the window graph *after* the whole event/batch (never
    /// half-applied); `lookup` resolves pair keys to edge records (needed
    /// to place each pair's endpoint images).
    pub fn apply<'a>(
        &mut self,
        q: &QueryGraph,
        g: &WindowGraph,
        lookup: impl Fn(tcsm_graph::EdgeKey) -> &'a TemporalEdge,
        deltas: &[DcsDelta],
    ) {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].added == w[1].added),
            "mixed add/remove deltas in one apply (half-applied batch?)"
        );
        // Reused across events: the worklist allocation is engine-lifetime.
        let mut work = std::mem::take(&mut self.work_scratch);
        debug_assert!(work.is_empty());
        for d in deltas {
            let e = d.pair.qedge;
            let sigma = lookup(d.pair.key);
            let tail = self.dag.tail(e);
            let head = self.dag.head(e);
            let v_tail = d.pair.image_of(q, sigma, tail);
            let v_head = d.pair.image_of(q, sigma, head);
            // The window keeps an expiring pair's bucket id resolvable until
            // the next mutation, so removal deltas still index directly.
            let Some(pid) = g.pair_id(v_tail, v_head) else {
                debug_assert!(false, "delta for a pair with no bucket");
                continue;
            };
            let idx = Dcs::mult_idx(pid, self.m2, e, v_tail < v_head);
            let rec = (sigma.key, sigma.time);
            if d.added {
                if idx >= self.mult.len() {
                    // Amortized growth with the pair slab; reused thereafter.
                    self.mult.resize((pid as usize + 1) * self.m2, 0);
                }
                self.mult[idx] += 1;
                self.mult_total += 1;
                if self.index.admit(e, v_tail, v_head, rec) {
                    debug_assert_eq!(self.mult[idx], 1, "group created at nonzero mult");
                    self.mult_groups += 1;
                    self.pair_edge_transition(e, v_tail, v_head, 1, &mut work);
                }
            } else {
                let Some(dropped) = self.index.withdraw(e, v_tail, v_head, rec) else {
                    // A malformed stream (removal of an untracked pair) must
                    // degrade, not abort the engine.
                    debug_assert!(false, "removing a pair its group does not hold");
                    continue;
                };
                self.mult[idx] -= 1;
                self.mult_total -= 1;
                if dropped {
                    debug_assert_eq!(self.mult[idx], 0, "group dropped at nonzero mult");
                    self.mult_groups -= 1;
                    self.pair_edge_transition(e, v_tail, v_head, -1, &mut work);
                }
            }
        }
        work = self.drain(work);
        self.work_scratch = work;
    }

    /// A DCS edge group `(e, v_tail, v_head)` appeared (`delta = 1`) or
    /// disappeared (`delta = -1`); seed the counter adjustments it implies.
    fn pair_edge_transition(
        &mut self,
        e: QEdgeId,
        v_tail: VertexId,
        v_head: VertexId,
        delta: i32,
        work: &mut Vec<Work>,
    ) {
        let tail = self.dag.tail(e);
        let head = self.dag.head(e);
        // Parent-side support for the head node.
        if self.d1(tail, v_tail) {
            work.push(Work::N1 {
                u: head,
                v: v_head,
                slot: self.parent_slot[e],
                delta,
            });
        }
        // Child-side support for the tail node.
        if self.d2(head, v_head) {
            work.push(Work::N2 {
                u: tail,
                v: v_tail,
                slot: self.child_slot[e],
                delta,
            });
        }
    }

    /// Drains the worklist; returns the (now empty) buffer for reuse.
    fn drain(&mut self, mut work: Vec<Work>) -> Vec<Work> {
        while let Some(w) = work.pop() {
            let (u, v, slot) = match w {
                Work::N1 { u, v, slot, .. } => (u, v, slot),
                Work::N2 { u, v, slot, .. } => (u, v, self.np[u] as usize + slot),
            };
            let delta = match w {
                Work::N1 { delta, .. } | Work::N2 { delta, .. } => delta,
            };
            let ci = self.row(u, v) + slot;
            let before = self.counters[ci];
            let after = (before as i64 + delta as i64) as u32;
            self.counters[ci] = after;
            // Track node occupancy so expiration provably empties the slab.
            let uv = u * self.n + v as usize;
            if before == 0 && after > 0 {
                self.nonzero_slots[uv] += 1;
                if self.nonzero_slots[uv] == 1 {
                    self.live_nodes += 1;
                }
            } else if before > 0 && after == 0 {
                self.nonzero_slots[uv] -= 1;
                if self.nonzero_slots[uv] == 0 {
                    self.live_nodes -= 1;
                }
            }
            if (before == 0) != (after == 0) {
                self.refresh_node(u, v, &mut work);
            }
        }
        work
    }

    /// True when every `n1` counter of `(u, v)` is positive.
    #[inline]
    fn n1_sat(&self, u: QVertexId, v: VertexId) -> bool {
        let row = self.row(u, v);
        self.counters[row..row + self.np[u] as usize]
            .iter()
            .all(|&c| c > 0)
    }

    /// True when every `n2` counter of `(u, v)` is positive.
    #[inline]
    fn n2_sat(&self, u: QVertexId, v: VertexId) -> bool {
        let row = self.row(u, v);
        self.counters[row + self.np[u] as usize..row + self.width[u] as usize]
            .iter()
            .all(|&c| c > 0)
    }

    /// Recomputes `d1`/`d2` of a node from its counters; on flips, seeds the
    /// induced adjustments in its DCS neighbours (read off the adjacency
    /// index, so a hub's window neighbourhood is never walked).
    fn refresh_node(&mut self, u: QVertexId, v: VertexId, work: &mut Vec<Work>) {
        let uv = u * self.n + v as usize;
        let label_ok = self.label_ok.get(uv);
        let new_d1 = label_ok && self.n1_sat(u, v);
        let new_d2 = new_d1 && self.n2_sat(u, v);
        let old_d1 = self.d1.replace(uv, new_d1);
        let old_d2 = self.d2.replace(uv, new_d2);
        if new_d2 != old_d2 {
            if new_d2 {
                self.d2_count += 1;
            } else {
                self.d2_count -= 1;
            }
        }
        if new_d1 != old_d1 {
            // d1[u, v] supports n1 of every child image connected by an
            // alive DCS edge group.
            let delta = if new_d1 { 1 } else { -1 };
            for &(e, uc) in self.dag.children(u) {
                let slot = self.parent_slot[e];
                for &(vc, _) in self.index.row(e, End::Tail, v) {
                    work.push(Work::N1 {
                        u: uc,
                        v: vc,
                        slot,
                        delta,
                    });
                }
            }
        }
        if new_d2 != old_d2 {
            // d2[u, v] supports n2 of every parent image connected by an
            // alive DCS edge group.
            let delta = if new_d2 { 1 } else { -1 };
            for &(e, up) in self.dag.parents(u) {
                let slot = self.child_slot[e];
                for &(vp, _) in self.index.row(e, End::Head, v) {
                    work.push(Work::N2 {
                        u: up,
                        v: vp,
                        slot,
                        delta,
                    });
                }
            }
        }
    }

    /// From-scratch recomputation of the incremental state — the
    /// historical panicking wrapper over [`Dcs::audit`] at
    /// [`tcsm_graph::AuditLevel::Deep`], kept for tests.
    #[doc(hidden)]
    pub fn check_consistency(&self, q: &QueryGraph, g: &WindowGraph) {
        let mut out = Vec::new();
        self.audit(q, g, tcsm_graph::AuditLevel::Deep, &mut out);
        tcsm_graph::audit::expect_clean("Dcs", &out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsm_dag::build_best_dag;
    use tcsm_filter::{FilterBank, FilterMode};
    use tcsm_graph::query::paper_running_example;
    use tcsm_graph::{EventKind, EventQueue, TemporalGraphBuilder, WindowGraph};

    fn figure_2a() -> tcsm_graph::TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        let labels = [0u32, 1, 5, 2, 3, 5, 4];
        let v: Vec<_> = labels.iter().map(|&l| b.vertex(l)).collect();
        b.edge(v[0], v[1], 1);
        b.edge(v[3], v[4], 2);
        b.edge(v[3], v[4], 3);
        b.edge(v[0], v[3], 4);
        b.edge(v[3], v[6], 5);
        b.edge(v[0], v[1], 6);
        b.edge(v[3], v[6], 7);
        b.edge(v[0], v[3], 8);
        b.edge(v[4], v[6], 9);
        b.edge(v[4], v[6], 10);
        b.edge(v[1], v[4], 11);
        b.edge(v[0], v[3], 12);
        b.edge(v[3], v[4], 13);
        b.edge(v[3], v[6], 14);
        b.build().unwrap()
    }

    fn run_stream(mode: FilterMode, delta: i64) -> (usize, usize) {
        let q = paper_running_example();
        let dag = build_best_dag(&q);
        let g = figure_2a();
        let mut w = WindowGraph::new(g.labels().to_vec(), false);
        let mut bank = FilterBank::new(&q, &dag, mode, &w);
        let mut dcs = Dcs::new(dag.clone(), &q, &w);
        let mut deltas = Vec::new();
        let mut peak_edges = 0;
        let mut peak_vertices = 0;
        let queue = EventQueue::new(&g, delta).unwrap();
        for ev in queue.iter() {
            let edge = *g.edge(ev.edge);
            deltas.clear();
            match ev.kind {
                EventKind::Insert => {
                    w.insert(&edge);
                    bank.on_insert(&q, &w, &edge, |k| g.edge(k), &mut deltas);
                }
                EventKind::Delete => {
                    w.remove(&edge);
                    bank.on_delete(&q, &w, &edge, |k| g.edge(k), &mut deltas);
                }
            }
            dcs.apply(&q, &w, |k| g.edge(k), &deltas);
            dcs.check_consistency(&q, &w);
            peak_edges = peak_edges.max(dcs.num_edges());
            peak_vertices = peak_vertices.max(dcs.num_candidate_vertices());
        }
        assert_eq!(dcs.num_edges(), 0);
        assert_eq!(dcs.num_candidate_vertices(), 0);
        assert_eq!(dcs.num_nodes(), 0, "all node states zeroed after drain");
        (peak_edges, peak_vertices)
    }

    #[test]
    fn incremental_matches_scratch_tc_mode() {
        let (edges, vertices) = run_stream(FilterMode::Tc, 10);
        assert!(edges > 0);
        assert!(vertices > 0);
    }

    #[test]
    fn incremental_matches_scratch_label_only_mode() {
        let (edges, vertices) = run_stream(FilterMode::LabelOnly, 10);
        assert!(edges > 0);
        assert!(vertices > 0);
    }

    #[test]
    fn tc_filter_shrinks_dcs() {
        // Table V's premise: with the TC-matchable edge filter both the DCS
        // edge count and the surviving vertex count shrink (or tie).
        let (e_tc, v_tc) = run_stream(FilterMode::Tc, 14);
        let (e_lo, v_lo) = run_stream(FilterMode::LabelOnly, 14);
        assert!(e_tc < e_lo, "tc {e_tc} !< label-only {e_lo}");
        assert!(v_tc <= v_lo);
    }

    #[test]
    fn full_graph_d2_matches_expected_candidates() {
        // With all 14 edges alive and label-only filtering, d2 should accept
        // exactly the label-correct vertex pairs that have full support:
        // u1↦v1, u2↦v2, u3↦v4, u4↦v5, u5↦v7.
        let q = paper_running_example();
        let dag = build_best_dag(&q);
        let g = figure_2a();
        let mut w = WindowGraph::new(g.labels().to_vec(), false);
        let mut bank = FilterBank::new(&q, &dag, FilterMode::LabelOnly, &w);
        let mut dcs = Dcs::new(dag.clone(), &q, &w);
        let mut deltas = Vec::new();
        for e in g.edges() {
            w.insert(e);
            deltas.clear();
            bank.on_insert(&q, &w, e, |k| g.edge(k), &mut deltas);
            dcs.apply(&q, &w, |k| g.edge(k), &deltas);
        }
        let expect = [(0usize, 0u32), (1, 1), (2, 3), (3, 4), (4, 6)];
        for &(u, v) in &expect {
            assert!(dcs.d2(u, v), "expected d2 at (u{u}, v{v})");
        }
        assert_eq!(dcs.num_candidate_vertices(), expect.len());
    }

    #[test]
    fn malformed_removal_is_a_release_noop() {
        // Satellite regression: deleting a pair that was never tracked must
        // not abort in release builds (debug builds assert).
        let q = paper_running_example();
        let dag = build_best_dag(&q);
        let g = figure_2a();
        let mut w = WindowGraph::new(g.labels().to_vec(), false);
        let mut dcs = Dcs::new(dag.clone(), &q, &w);
        let sigma = g.edges()[0];
        w.insert(&sigma);
        let bogus = [tcsm_filter::DcsDelta {
            pair: tcsm_filter::CandPair {
                qedge: 0,
                key: sigma.key,
                a_to_src: true,
            },
            added: false,
        }];
        if cfg!(debug_assertions) {
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dcs.apply(&q, &w, |k| g.edge(k), &bogus);
            }));
            assert!(got.is_err(), "debug builds keep the assertion");
        } else {
            dcs.apply(&q, &w, |k| g.edge(k), &bogus);
            assert_eq!(dcs.num_edges(), 0);
            dcs.check_consistency(&q, &w);
        }
    }
}
