//! # tcsm-dcs
//!
//! The **dynamic candidate space** (DCS) auxiliary structure, rebuilt from
//! SymBi (VLDB'21) as the paper's Algorithm 1 uses it (§III, "Updating the
//! data structures").
//!
//! The DCS stores, for every label-compatible `(query vertex u, data vertex
//! v)` pair, two boolean candidacies derived from weak embeddings of the
//! query DAG:
//!
//! * `d1[u, v]` — every parent `u_p` of `u` in `ˆq` has some DCS edge
//!   `((u_p, u), (v_p, v))`, with `d1[u_p, v_p]` (ancestor-side support);
//! * `d2[u, v]` — `d1[u, v]` holds and every child `u_c` has some DCS edge
//!   `((u, u_c), (v, v_c))` with `d2[u_c, v_c]` (descendant-side support).
//!
//! Where SymBi admits every label-matching edge pair as a DCS edge, TCM only
//! admits pairs that survived the TC-matchable-edge filter (`E⁺/E⁻_DCS` from
//! [`tcsm_filter::FilterBank`]), so both the update cost and the surviving
//! candidates shrink (Table V measures exactly these two quantities).
//!
//! Updates are counter-based and incremental: each event's pair deltas are
//! monotone (arrivals only add pairs, expirations only remove them), so the
//! boolean flips propagate once per node per event.
//!
//! # Memory model
//!
//! All per-`(u, v)` state is **dense and index-addressed** (see
//! [`node`](crate::Dcs)): the support-counter slab, the `d1`/`d2` bitmaps
//! and the label-compatibility bitmap are `O(|V(q)|·|V(g)|)`-shaped and
//! allocated once when the engine is constructed. The multiplicity index is
//! keyed by the window graph's stable pair-bucket ids and grows amortized
//! with the peak number of concurrently alive vertex pairs, after which it
//! is reused. Per-event work therefore allocates nothing proportional to
//! the table sizes; window expiration zeroes slots in place (`num_nodes()`
//! returns to 0 on a drained stream — the regression tests in
//! `tests/dense_oracle.rs` pin this).
//!
//! The DCS *as a graph* — which data vertices a candidate is joined to by
//! a live DCS edge and which data edges realise that edge, the things
//! backtracking enumerates — is the sparse adjacency index
//! ([`Dcs::adjacent`], [`Dcs::group_records`]): sorted `(neighbour, group)`
//! rows for exactly the edge groups with nonzero multiplicity, hash-keyed
//! by `(query edge, end, data vertex)`, and per group the admitted data
//! edges in arrival order. It is updated once per DCS edge delta and is
//! never serialized.

mod audit;
mod index;
mod node;
mod update;

pub use index::{End, GroupId, Record, RowEntry};
pub use node::Dcs;
