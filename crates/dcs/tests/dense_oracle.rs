//! Equivalence of the dense slab state with simple hash-map oracles, plus
//! the expiration regression: sliding windows must zero the slabs and must
//! not grow them without bound.
//!
//! The production structures are deliberately hash-free; these tests keep a
//! plain `FxHashMap` shadow of the multiplicity index (fed from the same
//! deltas) and re-derive every `(u, v)` candidacy from it by fixpoint, so a
//! dense-indexing bug (wrong stride, stale slot, missed zeroing) shows up as
//! a divergence from an independently maintained model. The sparse adjacency
//! index is held to the same shadow: its rows must list exactly the groups
//! the shadow holds, and each group's records exactly the admitted edges.

use proptest::prelude::*;
use tcsm_dag::{build_best_dag, Polarity};
use tcsm_dcs::{Dcs, End};
use tcsm_filter::{DcsDelta, FilterBank, FilterInstance, FilterMode};
use tcsm_graph::*;

fn arb_stream() -> impl Strategy<Value = (TemporalGraph, QueryGraph, i64)> {
    (
        3usize..6,
        prop::collection::vec((0u32..8, 0u32..8, 1i64..20, 0u32..2), 4..16),
        2usize..5,
        any::<u64>(),
        3i64..12,
    )
        .prop_map(|(n, edges, qn, seed, delta)| {
            let mut b = TemporalGraphBuilder::new();
            for i in 0..n {
                b.vertex((seed >> i) as u32 % 2);
            }
            for (a, c, t, l) in edges {
                let (a, c) = (a % n as u32, c % n as u32);
                if a != c {
                    b.edge_full(a, c, t, l);
                }
            }
            let g = b.build().unwrap();
            let mut qb = QueryGraphBuilder::new();
            for i in 0..qn {
                qb.vertex((seed >> (i + 8)) as u32 % 2);
            }
            for i in 1..qn {
                qb.edge((seed as usize >> i) % i, i);
            }
            (g, qb.build().unwrap(), delta)
        })
}

/// Re-derives `d1`/`d2` for every `(u, v)` from a hash-map multiplicity
/// oracle by the SymBi fixpoint, fully independent of the dense slabs.
fn oracle_candidacies(
    q: &QueryGraph,
    g: &WindowGraph,
    dag: &tcsm_dag::QueryDag,
    mult: &FxHashMap<(QEdgeId, VertexId, VertexId), u32>,
) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let n = g.num_vertices() as VertexId;
    let nq = q.num_vertices();
    let m = |e: QEdgeId, vt: VertexId, vh: VertexId| mult.get(&(e, vt, vh)).copied().unwrap_or(0);
    let mut d1 = vec![vec![false; n as usize]; nq];
    for &u in dag.topo_order() {
        for v in 0..n {
            if q.label(u) != g.label(v) {
                continue;
            }
            d1[u][v as usize] = dag
                .parents(u)
                .iter()
                .all(|&(e, up)| (0..n).any(|vp| m(e, vp, v) > 0 && d1[up][vp as usize]));
        }
    }
    let mut d2 = vec![vec![false; n as usize]; nq];
    for &u in dag.topo_order().iter().rev() {
        for v in 0..n {
            if !d1[u][v as usize] {
                continue;
            }
            d2[u][v as usize] = dag
                .children(u)
                .iter()
                .all(|&(e, uc)| (0..n).any(|vc| m(e, v, vc) > 0 && d2[uc][vc as usize]));
        }
    }
    (d1, d2)
}

/// The shadow of the adjacency index: per `(e, v_tail, v_head)` group, the
/// admitted data edges, fed from the same deltas as the DCS.
type GroupShadow = FxHashMap<(QEdgeId, VertexId, VertexId), Vec<(Ts, EdgeKey)>>;

fn feed_shadow(
    shadow: &mut GroupShadow,
    q: &QueryGraph,
    g: &TemporalGraph,
    dag: &tcsm_dag::QueryDag,
    deltas: &[DcsDelta],
) {
    for d in deltas {
        let sigma = g.edge(d.pair.key);
        let e = d.pair.qedge;
        let group = (
            e,
            d.pair.image_of(q, sigma, dag.tail(e)),
            d.pair.image_of(q, sigma, dag.head(e)),
        );
        let rec = (sigma.time, sigma.key);
        if d.added {
            shadow.entry(group).or_default().push(rec);
        } else {
            let records = shadow.get_mut(&group).expect("removal from a live group");
            let pos = records
                .iter()
                .position(|r| *r == rec)
                .expect("removal of an admitted edge");
            records.swap_remove(pos);
            if records.is_empty() {
                shadow.remove(&group);
            }
        }
    }
}

/// The index equals the shadow: for every `(e, v)` both rows list exactly
/// the shadow's groups at `v`, strictly ascending, tail and head rows agree
/// on each group's id, the id resolves the window's pair bucket to the same
/// `mult`, and the group's records are the shadow's in arrival order.
fn assert_index_matches(
    dcs: &Dcs,
    w: &WindowGraph,
    q: &QueryGraph,
    shadow: &GroupShadow,
) -> Result<(), String> {
    let n = w.num_vertices() as VertexId;
    let mut entries = 0usize;
    for e in 0..q.num_edges() {
        for v in 0..n {
            let tails = dcs.adjacent(e, End::Tail, v);
            let heads = dcs.adjacent(e, End::Head, v);
            for row in [tails, heads] {
                prop_assert!(
                    row.windows(2).all(|p| p[0].0 < p[1].0),
                    "row (e{}, v{}) not strictly ascending: {:?}",
                    e,
                    v,
                    row
                );
            }
            entries += tails.len() + heads.len();
            let want_heads: Vec<VertexId> = (0..n)
                .filter(|&vh| shadow.contains_key(&(e, v, vh)))
                .collect();
            let want_tails: Vec<VertexId> = (0..n)
                .filter(|&vt| shadow.contains_key(&(e, vt, v)))
                .collect();
            prop_assert_eq!(tails.iter().map(|r| r.0).collect::<Vec<_>>(), want_heads);
            prop_assert_eq!(heads.iter().map(|r| r.0).collect::<Vec<_>>(), want_tails);
            for &(vh, gid) in tails {
                prop_assert_eq!(dcs.group_of(e, v, vh), Some(gid));
                let back = dcs.adjacent(e, End::Head, vh);
                prop_assert!(
                    back.contains(&(v, gid)),
                    "head row disagrees on group {}",
                    gid
                );
                let mut want = shadow[&(e, v, vh)].clone();
                want.sort();
                let got: Vec<(Ts, EdgeKey)> =
                    dcs.group_records(gid).iter().map(|r| (r.1, r.0)).collect();
                prop_assert_eq!(&got, &want, "records of (e{}, v{}, v{})", e, v, vh);
                let pid = w.pair_id(v, vh).expect("live group on an alive pair");
                prop_assert_eq!(dcs.mult_at(pid, e, v < vh) as usize, want.len());
            }
        }
    }
    prop_assert_eq!(entries, 2 * shadow.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn dense_dcs_matches_hashmap_oracle((g, q, delta) in arb_stream()) {
        let dag = build_best_dag(&q);
        let mut w = WindowGraph::new(g.labels().to_vec(), false);
        let mut bank = FilterBank::new(&q, &dag, FilterMode::Tc, &w);
        let mut dcs = Dcs::new(dag.clone(), &q, &w);
        // The shadow model: a plain hash map fed from the same deltas.
        let mut shadow = GroupShadow::default();
        let mut deltas = Vec::new();
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
            feed_shadow(&mut shadow, &q, &g, &dag, &deltas);
            assert_index_matches(&dcs, &w, &q, &shadow)?;
            // The multiplicity shadow is the group shadow's record counts.
            let mult_oracle: FxHashMap<(QEdgeId, VertexId, VertexId), u32> =
                shadow.iter().map(|(&k, v)| (k, v.len() as u32)).collect();
            // Every (e, v_tail, v_head) multiplicity agrees with the shadow.
            let n = g.num_vertices() as VertexId;
            for e in 0..q.num_edges() {
                for vt in 0..n {
                    for vh in 0..n {
                        if vt == vh {
                            continue;
                        }
                        let want = mult_oracle.get(&(e, vt, vh)).copied().unwrap_or(0);
                        prop_assert_eq!(
                            dcs.mult(&w, e, vt, vh), want,
                            "mult diverged at (e{}, v{}, v{})", e, vt, vh
                        );
                    }
                }
            }
            prop_assert_eq!(
                dcs.num_edges(),
                mult_oracle.values().map(|&c| c as usize).sum::<usize>()
            );
            prop_assert_eq!(dcs.num_edge_groups(), mult_oracle.len());
            // Every (u, v) candidacy agrees with the fixpoint over the shadow.
            let (d1, d2) = oracle_candidacies(&q, &w, &dag, &mult_oracle);
            for u in 0..q.num_vertices() {
                for v in 0..n {
                    prop_assert_eq!(dcs.d1(u, v), d1[u][v as usize], "d1 (u{}, v{})", u, v);
                    prop_assert_eq!(dcs.d2(u, v), d2[u][v as usize], "d2 (u{}, v{})", u, v);
                }
            }
        }
        prop_assert!(shadow.is_empty());
        prop_assert_eq!(dcs.num_edges(), 0);
        prop_assert_eq!(dcs.num_nodes(), 0, "counters not zeroed after drain");
    }

    #[test]
    fn adjacency_index_matches_shadow_after_every_delta_batch(
        (g, q, delta) in arb_stream(),
        label_only in any::<bool>(),
    ) {
        // The batched regime: every same-timestamp batch mutates the window
        // first, then reaches the DCS as one combined delta list (arrivals
        // in arbitrary key order, several buckets draining at once).
        let mode = if label_only { FilterMode::LabelOnly } else { FilterMode::Tc };
        let dag = build_best_dag(&q);
        let mut w = WindowGraph::new(g.labels().to_vec(), false);
        let mut bank = FilterBank::new(&q, &dag, mode, &w);
        let mut dcs = Dcs::new(dag.clone(), &q, &w);
        let mut shadow = GroupShadow::default();
        let mut deltas = Vec::new();
        let queue = EventQueue::new(&g, delta).unwrap();
        for batch in queue.batches() {
            let edges: Vec<TemporalEdge> = batch.edges().map(|k| *g.edge(k)).collect();
            deltas.clear();
            w.begin_batch();
            match batch.kind {
                EventKind::Insert => {
                    for e in &edges {
                        w.insert_deferred(e);
                    }
                    bank.on_insert_batch(&q, &w, &edges, |k| g.edge(k), &mut deltas);
                }
                EventKind::Delete => {
                    for e in &edges {
                        w.remove_deferred(e);
                    }
                    bank.on_delete_batch(&q, &w, &edges, |k| g.edge(k), &mut deltas);
                }
            }
            dcs.apply(&q, &w, |k| g.edge(k), &deltas);
            feed_shadow(&mut shadow, &q, &g, &dag, &deltas);
            assert_index_matches(&dcs, &w, &q, &shadow)?;
            dcs.check_consistency(&q, &w);
        }
        prop_assert!(shadow.is_empty());
        assert_index_matches(&dcs, &w, &q, &shadow)?;
    }

    #[test]
    fn dense_filter_matches_fresh_replay((g, q, delta) in arb_stream()) {
        // A long-lived instance that has seen inserts AND expirations must
        // hold exactly the state of a fresh instance replaying only the
        // currently-alive edges — i.e. expiration really clears dense slots.
        let dag = build_best_dag(&q);
        for pol in Polarity::BOTH {
            let mut w = WindowGraph::new(g.labels().to_vec(), false);
            let mut inst = FilterInstance::new(dag.clone(), pol, &q, &w);
            let mut alive: Vec<TemporalEdge> = Vec::new();
            let mut flips = Vec::new();
            let queue = EventQueue::new(&g, delta).unwrap();
            for ev in queue.iter() {
                let edge = *g.edge(ev.edge);
                match ev.kind {
                    EventKind::Insert => {
                        w.insert(&edge);
                        alive.push(edge);
                        inst.apply(&q, &w, &edge, &mut flips);
                    }
                    EventKind::Delete => {
                        alive.retain(|e| e.key != edge.key);
                        w.remove(&edge);
                        inst.apply(&q, &w, &edge, &mut flips);
                    }
                }
                // Fresh replay over the alive set only.
                let mut w2 = WindowGraph::new(g.labels().to_vec(), false);
                let mut fresh = FilterInstance::new(dag.clone(), pol, &q, &w2);
                for e in &alive {
                    w2.insert(e);
                    flips.clear();
                    fresh.apply(&q, &w2, e, &mut flips);
                }
                for u in 0..q.num_vertices() {
                    for v in 0..g.num_vertices() as VertexId {
                        for e in dag.ancestor_edges(u).iter() {
                            prop_assert_eq!(
                                inst.natural_value(u, v, e),
                                fresh.natural_value(u, v, e),
                                "stale dense slot at (u{}, v{}, e{}) {:?}", u, v, e, pol
                            );
                        }
                    }
                }
                prop_assert_eq!(inst.table_len(), fresh.table_len());
            }
            prop_assert_eq!(inst.table_len(), 0);
        }
    }
}

#[test]
fn sliding_windows_do_not_grow_slabs() {
    // The same traffic pattern repeated over many windows: every pair-keyed
    // slab must stabilize after the first window instead of growing with
    // stream length, and a fully drained stream must leave all slabs zeroed.
    let q = tcsm_graph::query::paper_running_example();
    let dag = build_best_dag(&q);
    let mut b = TemporalGraphBuilder::new();
    let labels = [0u32, 1, 5, 2, 3, 5, 4];
    let v: Vec<_> = labels.iter().map(|&l| b.vertex(l)).collect();
    let pattern = [
        (0usize, 1usize),
        (3, 4),
        (0, 3),
        (3, 6),
        (4, 6),
        (1, 4),
        (3, 4),
    ];
    let rounds = 12;
    for r in 0..rounds {
        for (i, &(a, c)) in pattern.iter().enumerate() {
            b.edge(v[a], v[c], (r * pattern.len() + i) as i64 + 1);
        }
    }
    let g = b.build().unwrap();
    let delta = pattern.len() as i64; // one round alive at a time
    let mut w = WindowGraph::new(g.labels().to_vec(), false);
    let mut bank = FilterBank::new(&q, &dag, FilterMode::Tc, &w);
    let mut dcs = Dcs::new(dag.clone(), &q, &w);
    let mut deltas = Vec::new();
    let mut slab_after_round_2: Option<(usize, usize, usize)> = None;
    let queue = EventQueue::new(&g, delta).unwrap();
    for (i, ev) in queue.iter().enumerate() {
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
        // After two full rounds every recurring pair has been seen; the
        // slabs must not grow past this point.
        if i + 1 == 4 * pattern.len() {
            slab_after_round_2 = Some((
                w.pair_slab_len(),
                dcs.mult_slab_len(),
                dcs.index_retained_capacity(),
            ));
        }
    }
    let (pair_slab, mult_slab, index_capacity) = slab_after_round_2.expect("stream long enough");
    assert_eq!(
        w.pair_slab_len(),
        pair_slab,
        "window pair slab grew across identical sliding windows"
    );
    assert_eq!(
        dcs.mult_slab_len(),
        mult_slab,
        "DCS mult slab grew across identical sliding windows"
    );
    assert!(
        index_capacity > 0,
        "the pattern never populated the adjacency index"
    );
    assert_eq!(
        dcs.index_retained_capacity(),
        index_capacity,
        "adjacency-index buffers grew across identical sliding windows"
    );
    // Drained stream ⇒ every dense structure is back to its zero state.
    assert_eq!(w.num_alive_edges(), 0);
    assert_eq!(bank.num_pairs(), 0);
    assert_eq!(dcs.num_edges(), 0);
    assert_eq!(dcs.num_candidate_vertices(), 0);
    assert_eq!(dcs.num_nodes(), 0, "expiration left nonzero counters");
    for e in 0..q.num_edges() {
        for v in 0..g.num_vertices() as VertexId {
            assert!(dcs.adjacent(e, End::Tail, v).is_empty());
            assert!(dcs.adjacent(e, End::Head, v).is_empty());
        }
    }
    dcs.check_consistency(&q, &w);
}
