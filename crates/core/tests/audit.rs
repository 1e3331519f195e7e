//! Negative-test corpus for the cross-crate invariant auditor, plus a
//! property suite proving the Deep audit passes on random streams.
//!
//! Each negative test seeds exactly one corruption through the
//! `#[doc(hidden)]` hooks — a desync no public API can produce — and
//! asserts the Deep audit reports it under its catalogued name (see
//! `tcsm_graph::audit`). If any of these stop failing, the auditor has
//! gone blind to that invariant.

use proptest::prelude::*;
use tcsm_core::{AuditLevel, EngineConfig, TcmEngine};
use tcsm_datasets::{profiles::SUPERUSER, QueryGen};
use tcsm_graph::{QueryGraph, TemporalGraph};

fn workload() -> (QueryGraph, TemporalGraph, i64) {
    workload_with(77)
}

fn workload_with(qseed: u64) -> (QueryGraph, TemporalGraph, i64) {
    let g = SUPERUSER.generate(21, 0.3);
    let delta = SUPERUSER.window_sizes(0.3)[2];
    let qg = QueryGen::new(&g);
    let q = qg.generate(6, 0.5, delta / 2, qseed).expect("query");
    (q, g, delta)
}

/// A query with embeddings alive at the half-way point, one of them charged
/// to an edge that has a parallel neighbour.
fn ledger_workload() -> (QueryGraph, TemporalGraph, i64) {
    workload_with(3)
}

/// An engine stepped halfway through the stream: live window, populated
/// bank membership, nonzero DCS support.
fn half_run_engine<'a>(q: &'a QueryGraph, g: &'a TemporalGraph, delta: i64) -> TcmEngine<'a> {
    let mut e = TcmEngine::new(q, g, delta, EngineConfig::default()).expect("engine");
    let total = e.remaining_events();
    let mut out = Vec::new();
    for _ in 0..total / 2 {
        assert!(e.step(&mut out));
    }
    e
}

fn names(e: &TcmEngine) -> Vec<&'static str> {
    e.audit_now(AuditLevel::Deep)
        .iter()
        .map(|v| v.name())
        .collect()
}

#[test]
fn audit_is_clean_before_any_corruption() {
    let (q, g, delta) = workload();
    let e = half_run_engine(&q, &g, delta);
    let out = e.audit_now(AuditLevel::Deep);
    assert!(out.is_empty(), "uncorrupted engine flagged: {out:?}");
}

#[test]
fn corrupted_dcs_counter_is_caught() {
    let (q, g, delta) = workload();
    let mut e = half_run_engine(&q, &g, delta);
    e.runtime_mut().dcs_mut().corrupt_counter(0, 0, 0);
    let names = names(&e);
    assert!(
        names
            .iter()
            .any(|n| ["dcs-counter", "dcs-slot-census", "dcs-live-census"].contains(n)),
        "bumped support counter not caught: {names:?}"
    );
}

#[test]
fn corrupted_d2_bit_is_caught() {
    let (q, g, delta) = workload();
    let mut e = half_run_engine(&q, &g, delta);
    e.runtime_mut().dcs_mut().corrupt_d2(0, 0);
    let names = names(&e);
    assert!(
        names.iter().any(|n| n.starts_with("dcs-d2")),
        "flipped d2 bit not caught: {names:?}"
    );
}

#[test]
fn dropped_adjacency_row_entry_is_caught() {
    let (q, g, delta) = workload();
    let mut e = half_run_engine(&q, &g, delta);
    assert!(
        e.runtime_mut().dcs_mut().corrupt_index(false),
        "workload produced no DCS edge groups to corrupt"
    );
    let names = names(&e);
    assert!(
        names.contains(&"dcs-adjacency-index"),
        "dropped adjacency entry not caught: {names:?}"
    );
}

#[test]
fn stale_adjacency_group_id_is_caught() {
    let (q, g, delta) = workload();
    let mut e = half_run_engine(&q, &g, delta);
    assert!(
        e.runtime_mut().dcs_mut().corrupt_index(true),
        "workload produced no DCS edge groups to corrupt"
    );
    let names = names(&e);
    assert!(
        names.contains(&"dcs-adjacency-index"),
        "stale group id not caught: {names:?}"
    );
}

#[test]
fn dropped_ledger_charge_is_caught() {
    let (q, g, delta) = ledger_workload();
    let mut e = half_run_engine(&q, &g, delta);
    assert!(
        e.corrupt_ledger(false),
        "workload left no charged edge with a parallel neighbour"
    );
    // A lost charge breaks the conservation law, which needs no recount.
    let cheap = e.audit_now(AuditLevel::Cheap);
    assert!(
        cheap.iter().any(|v| v.name() == "stats-conservation"),
        "dropped charge not caught at Cheap: {cheap:?}"
    );
    let names = names(&e);
    assert!(
        names.contains(&"expiry-ledger"),
        "dropped charge not caught: {names:?}"
    );
}

#[test]
fn ledger_charge_moved_to_a_parallel_edge_is_caught() {
    let (q, g, delta) = ledger_workload();
    let mut e = half_run_engine(&q, &g, delta);
    assert!(
        e.corrupt_ledger(true),
        "workload left no charged edge with a parallel neighbour"
    );
    // The sum is intact, so only the recount can tell.
    assert!(e.audit_now(AuditLevel::Cheap).is_empty());
    let names = names(&e);
    assert!(
        names.contains(&"expiry-ledger"),
        "moved charge not caught: {names:?}"
    );
}

#[test]
fn unpinned_pad_lane_is_caught() {
    let (q, g, delta) = workload();
    let mut e = half_run_engine(&q, &g, delta);
    assert!(e.runtime_mut().bank_mut().corrupt_pad_lane(0, 0, 0));
    let names = names(&e);
    assert!(
        names.contains(&"filter-pad-lane"),
        "unpinned pad sentinel not caught: {names:?}"
    );
}

#[test]
fn desynced_membership_bitmap_is_caught() {
    let (q, g, delta) = workload();
    let mut e = half_run_engine(&q, &g, delta);
    assert!(
        e.runtime_mut().bank_mut().corrupt_membership_word(),
        "workload produced no bank members to corrupt"
    );
    let names = names(&e);
    assert!(
        names.contains(&"bank-page-census"),
        "cleared membership bit not caught: {names:?}"
    );
}

#[test]
fn desynced_pair_census_is_caught() {
    let (q, g, delta) = workload();
    let mut e = half_run_engine(&q, &g, delta);
    e.runtime_mut().bank_mut().corrupt_pair_census();
    let names = names(&e);
    assert!(
        names.contains(&"bank-pair-census"),
        "bumped pair count not caught: {names:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    /// Random profile streams across regimes (per-event vs batched) and
    /// thread widths, auditing at Deep after *every* event via the
    /// engine's own step-path hook: the incremental structures must stay
    /// indistinguishable from their from-scratch recomputation.
    #[test]
    fn deep_audit_passes_on_random_streams(
        seed in 0u64..1_000,
        scale_pct in 15u32..35,
        qseed in 0u64..1_000,
        threads in 0usize..3,
        batching in any::<bool>(),
    ) {
        let scale = scale_pct as f64 / 100.0;
        let g = SUPERUSER.generate(seed, scale);
        let delta = SUPERUSER.window_sizes(scale)[1];
        let qg = QueryGen::new(&g);
        let Some(q) = qg.generate(4, 0.5, delta / 2, qseed) else {
            return Ok(()); // no query embeddable at this seed; vacuous case
        };
        let cfg = EngineConfig { batching, threads, ..Default::default() };
        let mut e = TcmEngine::new(&q, &g, delta, cfg).expect("engine");
        e.set_audit(AuditLevel::Deep, 1);
        let mut out = Vec::new();
        if batching {
            while e.step_batch(&mut out) {}
        } else {
            while e.step(&mut out) {}
        }
        let leftover = e.audit_now(AuditLevel::Deep);
        prop_assert!(leftover.is_empty(), "final audit flagged: {leftover:?}");
    }
}
