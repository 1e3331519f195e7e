//! DCS storage: dense per-`(u, v)` counter slabs, the pair-indexed
//! multiplicity slab, and the sparse adjacency index over live edge groups.
//!
//! # Memory model
//!
//! Query vertices are bounded by 64 and the data-vertex count `n` is fixed
//! when the stream opens, so all per-node state lives in flat arrays
//! allocated once at construction:
//!
//! * `counters` — for every query vertex `u`, an `n × (parents(u) +
//!   children(u))` block of `u32` support counters, one row per data vertex
//!   (`O(|E(q)| · n)` words total, rows contiguous so one node's
//!   `n1`/`n2` check is a short cache-resident scan);
//! * `d1` / `d2` — one bit per `(u, v)` pair (`O(|V(q)| · n)` bits), plus a
//!   precomputed `label_ok` bitmap so candidacy refreshes never touch the
//!   label arrays;
//! * `mult` — DCS edge multiplicities addressed by **window pair-bucket id**
//!   (`pair · 2|E(q)| + ε·2 + orientation`), the stable ids handed out by
//!   [`tcsm_graph::WindowGraph`]. This slab grows amortized with the peak
//!   number of concurrently alive vertex pairs and is then reused.
//!
//! The one structure that is *not* dense is the adjacency index (module
//! `index`): a hash map from `(query edge, end, data vertex)` to the sorted
//! `(opposite endpoint, GroupId)` row of the edge groups with `mult > 0`,
//! each group holding its admitted data edges in arrival order — the DCS as
//! a graph, which `FindMatches` enumerates instead of the window. Its size
//! is two row entries per live edge group, one record per admitted pair and
//! one map slot per non-empty row; a dense `O(|E(q)| · n)` table of row
//! heads would cost more than every other slab here on a sparse DCS. It is
//! the only hashing on the per-event path, and it is touched once per DCS
//! edge delta, never per window edge.

use crate::index::{AdjIndex, End, GroupId, Record, RowEntry};
use tcsm_dag::QueryDag;
use tcsm_filter::CandPair;
use tcsm_graph::codec::{CodecError, Decoder, Encoder};
use tcsm_graph::{DenseBits, PairId, QEdgeId, QVertexId, QueryGraph, VertexId, WindowGraph};

/// The dynamic candidate space.
pub struct Dcs {
    pub(crate) dag: QueryDag,
    /// Data-vertex count (fixed at construction).
    pub(crate) n: usize,
    /// `2 · |E(q)|`: the `mult` stride per pair bucket.
    pub(crate) m2: usize,
    /// Parent count per query vertex (`n1` slots; `n2` slots follow).
    pub(crate) np: Vec<u32>,
    /// `parents + children` counter row width per query vertex.
    pub(crate) width: Vec<u32>,
    /// Prefix sums of `width`: block `u` starts at `cbase[u] * n`.
    pub(crate) cbase: Vec<u32>,
    /// The flat counter slab (see module docs).
    pub(crate) counters: Vec<u32>,
    /// Per `(u, v)`: number of nonzero counter slots (`0` = default node).
    pub(crate) nonzero_slots: Vec<u8>,
    /// Number of `(u, v)` nodes with any nonzero counter.
    pub(crate) live_nodes: usize,
    /// `d1`/`d2` candidacy bits per `(u, v)` (index `u·n + v`).
    pub(crate) d1: DenseBits,
    pub(crate) d2: DenseBits,
    /// `label(u) == label(v)` per `(u, v)`, precomputed.
    pub(crate) label_ok: DenseBits,
    /// Number of nodes with `d2 == true` (the Table V vertex metric).
    pub(crate) d2_count: usize,
    /// Parent/child slot of each edge at its head/tail (cached).
    pub(crate) parent_slot: Vec<usize>,
    pub(crate) child_slot: Vec<usize>,
    /// Worklist buffer reused across [`Dcs::apply`] calls.
    pub(crate) work_scratch: Vec<crate::update::Work>,
    /// Multiplicity of DCS edges per `(pair bucket, qedge, orientation)`.
    pub(crate) mult: Vec<u32>,
    /// Number of nonzero `mult` entries (= DCS edge groups).
    pub(crate) mult_groups: usize,
    /// Sum of all `mult` entries (= DCS edge multiplicity).
    pub(crate) mult_total: usize,
    /// Adjacency rows of the groups with nonzero `mult` (derived state:
    /// never serialized; `Dcs::rebuild_index` re-derives it).
    pub(crate) index: AdjIndex,
}

impl Dcs {
    /// Creates an empty DCS over the forward query DAG for the fixed vertex
    /// set of `g`. All `O(|V(q)|·|V(g)|)`-shaped slabs are allocated here,
    /// once, and reused for the stream's lifetime.
    pub fn new(dag: QueryDag, q: &QueryGraph, g: &WindowGraph) -> Dcs {
        let m = dag.num_edges();
        let nq = dag.num_vertices();
        let n = g.num_vertices();
        // Defense in depth behind the typed `GraphError::QueryTooLarge`
        // guard in `QueryGraph::new` (the slot/width tables and the
        // matcher's 64-bit vertex sets assume this bound).
        assert!(
            nq <= tcsm_graph::MAX_QUERY_DIM && m <= tcsm_graph::MAX_QUERY_DIM,
            "query exceeds MAX_QUERY_DIM={} (QueryGraph construction must reject this)",
            tcsm_graph::MAX_QUERY_DIM
        );
        let mut parent_slot = vec![0; m];
        let mut child_slot = vec![0; m];
        let mut np = vec![0u32; nq];
        let mut width = vec![0u32; nq];
        for u in 0..nq {
            for (i, &(e, _)) in dag.parents(u).iter().enumerate() {
                parent_slot[e] = i;
            }
            for (i, &(e, _)) in dag.children(u).iter().enumerate() {
                child_slot[e] = i;
            }
            np[u] = dag.parents(u).len() as u32;
            width[u] = (dag.parents(u).len() + dag.children(u).len()) as u32;
        }
        let mut cbase = vec![0u32; nq];
        let mut acc = 0u32;
        for u in 0..nq {
            cbase[u] = acc;
            acc += width[u];
        }
        let mut label_ok = DenseBits::new(nq * n);
        let mut d1 = DenseBits::new(nq * n);
        let mut d2 = DenseBits::new(nq * n);
        for u in 0..nq {
            let lu = q.label(u);
            let root_u = dag.parents(u).is_empty();
            let leaf_u = dag.children(u).is_empty();
            for v in 0..n {
                if lu == g.label(v as VertexId) {
                    label_ok.set(u * n + v);
                    // Counter-free defaults: roots are d1 on label match
                    // alone; d2 additionally needs zero children.
                    if root_u {
                        d1.set(u * n + v);
                        if leaf_u {
                            d2.set(u * n + v);
                        }
                    }
                }
            }
        }
        Dcs {
            dag,
            n,
            m2: 2 * m,
            np,
            width,
            cbase,
            counters: vec![0; acc as usize * n],
            nonzero_slots: vec![0; nq * n],
            live_nodes: 0,
            d1,
            d2,
            label_ok,
            d2_count: 0,
            parent_slot,
            child_slot,
            work_scratch: Vec::new(),
            mult: Vec::new(),
            mult_groups: 0,
            mult_total: 0,
            index: AdjIndex::default(),
        }
    }

    /// The DAG this DCS is built over.
    #[inline]
    pub fn dag(&self) -> &QueryDag {
        &self.dag
    }

    /// Start of the counter row for `(u, v)`.
    #[inline]
    pub(crate) fn row(&self, u: QVertexId, v: VertexId) -> usize {
        self.cbase[u] as usize * self.n + v as usize * self.width[u] as usize
    }

    /// `mult` slab index for `(pair, e, orientation)`.
    #[inline]
    pub(crate) fn mult_idx(pair: PairId, m2: usize, e: QEdgeId, tail_lt_head: bool) -> usize {
        pair as usize * m2 + e * 2 + tail_lt_head as usize
    }

    /// Multiplicity by direct pair-bucket index (the hot-path form).
    #[inline]
    pub fn mult_at(&self, pair: PairId, e: QEdgeId, tail_lt_head: bool) -> u32 {
        self.mult
            .get(Dcs::mult_idx(pair, self.m2, e, tail_lt_head))
            .copied()
            .unwrap_or(0)
    }

    /// Number of alive DCS edges for `(e, v_tail, v_head)` — i.e. how many
    /// parallel data edges between the two images are admitted for `e`.
    #[inline]
    pub fn mult(&self, g: &WindowGraph, e: QEdgeId, v_tail: VertexId, v_head: VertexId) -> u32 {
        match g.pair_id(v_tail, v_head) {
            Some(p) => self.mult_at(p, e, v_tail < v_head),
            None => 0,
        }
    }

    /// The DCS neighbours of `v` as the `end` of query edge `e`: `(opposite
    /// endpoint image, group)` for exactly the edge groups with nonzero
    /// multiplicity, strictly ascending by endpoint.
    #[inline]
    pub fn adjacent(&self, e: QEdgeId, end: End, v: VertexId) -> &[RowEntry] {
        self.index.row(e, end, v)
    }

    /// The data edges admitted to a live edge group (an id read from
    /// [`Dcs::adjacent`]), in arrival order: ascending `(Ts, EdgeKey)`.
    #[inline]
    pub fn group_records(&self, gid: GroupId) -> &[Record] {
        self.index.records(gid)
    }

    /// The live edge group `(e, v_tail, v_head)`, if any.
    #[inline]
    pub fn group_of(&self, e: QEdgeId, v_tail: VertexId, v_head: VertexId) -> Option<GroupId> {
        self.index.group_of(e, v_tail, v_head)
    }

    /// Row-entry plus record capacity retained by the adjacency index's
    /// buffers, live and recycled (the slab-growth regression test pins
    /// this).
    #[inline]
    pub fn index_retained_capacity(&self) -> usize {
        self.index.retained_capacity()
    }

    /// `d1[u, v]` (ancestor-side candidacy).
    #[inline]
    pub fn d1(&self, u: QVertexId, v: VertexId) -> bool {
        self.d1.get(u * self.n + v as usize)
    }

    /// `d2[u, v]` (full candidacy; implies `d1`).
    #[inline]
    pub fn d2(&self, u: QVertexId, v: VertexId) -> bool {
        self.d2.get(u * self.n + v as usize)
    }

    /// Number of distinct `(qedge, data pair)` groups with alive DCS edges.
    #[inline]
    pub fn num_edge_groups(&self) -> usize {
        self.mult_groups
    }

    /// Total DCS edge multiplicity (= number of admitted oriented pairs).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.mult_total
    }

    /// Number of `(u, v)` pairs with `d2` — the "vertices remaining in DCS
    /// after filtering" metric of Table V.
    ///
    /// Nodes that are candidates *by default* (isolated single-vertex
    /// queries) are not counted; every query this library accepts has at
    /// least one edge, so default-`d2` nodes cannot occur.
    #[inline]
    pub fn num_candidate_vertices(&self) -> usize {
        self.d2_count
    }

    /// Number of `(u, v)` nodes holding any nonzero counter (the dense
    /// analogue of "materialized node states"; memory diagnostics).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Current length of the pair-indexed multiplicity slab, in entries.
    /// Grows with the peak number of concurrently alive vertex pairs and is
    /// then stable — the expiration regression test pins this.
    #[inline]
    pub fn mult_slab_len(&self) -> usize {
        self.mult.len()
    }

    /// Serializes the dynamic state: counter slab, nonzero-slot censuses,
    /// candidacy bitmaps and the pair-indexed multiplicity slab. Everything
    /// else (DAG shape, slot tables, label bitmap) is a construction-time
    /// constant rebuilt by [`Dcs::new`].
    ///
    /// Must only be called at an event boundary (empty worklist).
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_usize(self.counters.len());
        for &c in &self.counters {
            enc.put_u32(c);
        }
        enc.put_usize(self.nonzero_slots.len());
        for &s in &self.nonzero_slots {
            enc.put_u8(s);
        }
        enc.put_usize(self.live_nodes);
        enc.put_bits(&self.d1);
        enc.put_bits(&self.d2);
        enc.put_usize(self.d2_count);
        enc.put_usize(self.mult.len());
        for &m in &self.mult {
            enc.put_u32(m);
        }
        enc.put_usize(self.mult_groups);
        enc.put_usize(self.mult_total);
    }

    /// Overlays serialized state onto a freshly constructed DCS of the same
    /// query and window shape. Slab lengths must match the construction
    /// shape (`mult` additionally must be a whole number of pair strides),
    /// and every stored census must agree with the slab it summarizes —
    /// anything else is corruption. The adjacency index is not part of the
    /// snapshot; it is rebuilt here from `g` — the already-restored window
    /// the snapshot was taken over — and `admitted`, the restored filter
    /// bank's membership test, and must then agree with the restored `mult`
    /// slab group by group.
    pub fn restore_state(
        &mut self,
        dec: &mut Decoder<'_>,
        q: &QueryGraph,
        g: &WindowGraph,
        admitted: impl Fn(CandPair) -> bool,
    ) -> Result<(), CodecError> {
        let nc = dec.get_count(4)?;
        if nc != self.counters.len() {
            return Err(CodecError::Invalid(format!(
                "counter slab has {nc} entries (expected {})",
                self.counters.len()
            )));
        }
        let mut counters = Vec::with_capacity(nc);
        for _ in 0..nc {
            counters.push(dec.get_u32()?);
        }
        let ns = dec.get_count(1)?;
        if ns != self.nonzero_slots.len() {
            return Err(CodecError::Invalid(format!(
                "nonzero-slot slab has {ns} entries (expected {})",
                self.nonzero_slots.len()
            )));
        }
        let mut nonzero_slots = Vec::with_capacity(ns);
        for _ in 0..ns {
            nonzero_slots.push(dec.get_u8()?);
        }
        let live_nodes = dec.get_usize()?;
        let live_census = nonzero_slots.iter().filter(|&&s| s != 0).count();
        if live_nodes != live_census {
            return Err(CodecError::Invalid(format!(
                "live-node count {live_nodes} disagrees with slot census {live_census}"
            )));
        }
        let d1 = dec.get_bits(self.d1.len())?;
        let d2 = dec.get_bits(self.d2.len())?;
        let d2_count = dec.get_usize()?;
        if d2_count != d2.count_ones() {
            return Err(CodecError::Invalid(format!(
                "d2 census {d2_count} disagrees with bitmap ({})",
                d2.count_ones()
            )));
        }
        let nm = dec.get_count(4)?;
        if self.m2 != 0 && !nm.is_multiple_of(self.m2) {
            return Err(CodecError::Invalid(format!(
                "mult slab length {nm} is not a multiple of the pair stride {}",
                self.m2
            )));
        }
        let mut mult = Vec::with_capacity(nm);
        for _ in 0..nm {
            mult.push(dec.get_u32()?);
        }
        let mult_groups = dec.get_usize()?;
        let mult_total = dec.get_usize()?;
        let groups_census = mult.iter().filter(|&&m| m != 0).count();
        let total_census: usize = mult.iter().map(|&m| m as usize).sum();
        if mult_groups != groups_census || mult_total != total_census {
            return Err(CodecError::Invalid(format!(
                "mult censuses ({mult_groups}, {mult_total}) disagree with slab \
                 ({groups_census}, {total_census})"
            )));
        }
        self.counters = counters;
        self.nonzero_slots = nonzero_slots;
        self.live_nodes = live_nodes;
        self.d1 = d1;
        self.d2 = d2;
        self.d2_count = d2_count;
        self.mult = mult;
        self.mult_groups = mult_groups;
        self.mult_total = mult_total;
        self.rebuild_index(q, g, admitted);
        let groups_agree = || {
            let mut tail_rows = self.index.iter().filter(|r| r.1 == End::Tail);
            tail_rows.all(|(e, _, v_tail, row)| {
                row.iter().all(|&(v_head, gid)| {
                    g.pair_id(v_tail, v_head).is_some_and(|pid| {
                        self.mult_at(pid, e, v_tail < v_head) as usize
                            == self.index.records(gid).len()
                    })
                })
            })
        };
        if self.index.num_records() != self.mult_total
            || self.index.num_entries() != 2 * self.mult_groups
            || !groups_agree()
        {
            return Err(CodecError::Invalid(format!(
                "mult censuses ({mult_groups}, {mult_total}) disagree with the bank's \
                 membership over the window ({}, {})",
                self.index.num_entries() / 2,
                self.index.num_records()
            )));
        }
        Ok(())
    }

    /// Re-derives the adjacency index: every alive window edge, query edge
    /// and orientation the bank admits contributes one record to the group
    /// of its endpoint images. Buckets hold edges in arrival order, so each
    /// group's records come out sorted.
    fn rebuild_index(
        &mut self,
        q: &QueryGraph,
        g: &WindowGraph,
        admitted: impl Fn(CandPair) -> bool,
    ) {
        self.index.clear();
        for bucket in g.buckets() {
            for rec in bucket.iter() {
                let (src, dst) = if rec.src_is_a {
                    (bucket.a, bucket.b)
                } else {
                    (bucket.b, bucket.a)
                };
                for (e, qe) in q.edges().iter().enumerate() {
                    for a_to_src in [true, false] {
                        let pair = CandPair {
                            qedge: e,
                            key: rec.key,
                            a_to_src,
                        };
                        if !admitted(pair) {
                            continue;
                        }
                        let (va, vb) = if a_to_src { (src, dst) } else { (dst, src) };
                        let (v_tail, v_head) = if self.dag.tail(e) == qe.a {
                            (va, vb)
                        } else {
                            (vb, va)
                        };
                        self.index.admit(e, v_tail, v_head, (rec.key, rec.time));
                    }
                }
            }
        }
    }
}
