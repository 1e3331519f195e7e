//! Differential suite for the expiry ledger: per *event*, not per run, the
//! expirations a counting engine reads off its ledger must equal the
//! `Expired` events a materialising engine enumerates and the brute-force
//! oracle's — under all four presets × serial/batched × pool widths 0/2,
//! with the Deep audit (which recounts the ledger from the window) after
//! every step.
//!
//! The streams are built to hit the cases the ledger's bookkeeping depends
//! on: timestamp ties decided by `EdgeKey` (keys are insertion-ordered, not
//! time-ordered), nested Case-1 nodes whose candidates straddle the minimum
//! of the other edges, a seed that is its own embedding's minimum, and a
//! query admitted mid-stream (ledger seeded from a populated window; the
//! checkpoint → restore twin lives in `crates/service/tests/recovery.rs`).

mod common;

use common::{arb_bursty_graph, arb_query};
use proptest::prelude::*;
use tcsm::baselines::OracleEngine;
use tcsm::core::AuditLevel;
use tcsm::prelude::*;

const PRESETS: [AlgorithmPreset; 4] = [
    AlgorithmPreset::Tcm,
    AlgorithmPreset::TcmNoPruning,
    AlgorithmPreset::TcmNoFilter,
    AlgorithmPreset::SymBiPostCheck,
];

/// `(occurred, expired)` of a batch of match events.
fn tally(events: &[MatchEvent]) -> (u64, u64) {
    let occurred = events
        .iter()
        .filter(|m| m.kind == MatchKind::Occurred)
        .count() as u64;
    (occurred, events.len() as u64 - occurred)
}

/// The oracle's `(occurred, expired)` per stream event, in queue order.
fn oracle_per_event(
    q: &QueryGraph,
    g: &TemporalGraph,
    delta: i64,
    directed: bool,
) -> Vec<(u64, u64)> {
    let mut oracle = OracleEngine::new(q, g, delta, directed).expect("oracle builds");
    let mut per_event = Vec::new();
    let mut out = Vec::new();
    while oracle.step(&mut out) {
        per_event.push(tally(&out));
        out.clear();
    }
    per_event
}

fn sum(counts: &[(u64, u64)]) -> (u64, u64) {
    counts.iter().fold((0, 0), |(o, x), &(a, b)| (o + a, x + b))
}

fn step(e: &mut TcmEngine<'_>, batching: bool, out: &mut Vec<MatchEvent>) -> bool {
    if batching {
        e.step_batch(out)
    } else {
        e.step(out)
    }
}

/// Steps a materialising and a counting engine in lockstep under every
/// preset × regime × pool width and holds both, step by step, to the
/// oracle's counts over the events the step covered. Returns the stream's
/// total `(occurred, expired)` and the Case-1 clones the `Tcm` preset made.
fn assert_ledger_tracks_oracle(
    q: &QueryGraph,
    g: &TemporalGraph,
    delta: i64,
    directed: bool,
) -> ((u64, u64), u64) {
    let want = oracle_per_event(q, g, delta, directed);
    let mut clones = 0;
    for preset in PRESETS {
        for batching in [false, true] {
            for threads in [0, 2] {
                let cfg = EngineConfig {
                    preset,
                    directed,
                    batching,
                    threads,
                    ..Default::default()
                };
                let counting_cfg = EngineConfig {
                    collect_matches: false,
                    ..cfg
                };
                let mut collecting = TcmEngine::new(q, g, delta, cfg).expect("engine builds");
                let mut counting =
                    TcmEngine::new(q, g, delta, counting_cfg).expect("engine builds");
                collecting.set_audit(AuditLevel::Deep, 1);
                counting.set_audit(AuditLevel::Deep, 1);
                let ctx = format!("{preset:?}, batching {batching}, threads {threads}");
                let (mut cursor, mut seen) = (0, (0, 0));
                let (mut out, mut none) = (Vec::new(), Vec::new());
                loop {
                    let before = collecting.remaining_events();
                    let more = step(&mut collecting, batching, &mut out);
                    assert_eq!(more, step(&mut counting, batching, &mut none), "{ctx}");
                    if !more {
                        break;
                    }
                    let covered = before - collecting.remaining_events();
                    let expect = sum(&want[cursor..cursor + covered]);
                    assert_eq!(
                        tally(&out),
                        expect,
                        "materialised events {cursor}..{} ({ctx})",
                        cursor + covered
                    );
                    let s = counting.stats();
                    assert_eq!(
                        (s.occurred - seen.0, s.expired - seen.1),
                        expect,
                        "counted events {cursor}..{} ({ctx})",
                        cursor + covered
                    );
                    assert!(none.is_empty(), "a counting engine materialises nothing");
                    seen = (s.occurred, s.expired);
                    cursor += covered;
                    out.clear();
                }
                assert_eq!(cursor, want.len(), "{ctx}");
                if preset == AlgorithmPreset::Tcm {
                    clones = clones.max(counting.stats().cloned_case1);
                }
            }
        }
    }
    (sum(&want), clones)
}

/// A one-label path query over `vertices` vertices with the given `≺` pairs
/// over its edges (edge `i` joins vertices `i` and `i + 1`).
fn path_query(vertices: usize, order: &[(usize, usize)]) -> QueryGraph {
    let mut qb = QueryGraphBuilder::new();
    let v: Vec<_> = (0..vertices).map(|_| qb.vertex(0)).collect();
    for w in v.windows(2) {
        qb.edge(w[0], w[1]);
    }
    for &(a, b) in order {
        qb.precede(a, b);
    }
    qb.build().expect("valid path query")
}

#[test]
fn timestamp_ties_are_decided_by_edge_key() {
    // Every instant carries a burst, and the builder is fed newest-first,
    // so within one instant — and across instants — key order disagrees
    // with time order: an embedding's minimum edge (and hence the
    // expiration it is charged to) is decided by the key among equal
    // timestamps, and by the timestamp among unequal ones, never by the
    // key alone.
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(4, 0);
    for t in (1..=4i64).rev() {
        for (a, b) in [(2, 3), (0, 1), (1, 2), (0, 1), (1, 2)] {
            gb.edge(v + a, v + b, t);
        }
    }
    let g = gb.build().unwrap();
    assert!(
        g.edges().windows(2).any(|w| w[0].key > w[1].key),
        "arrival order must disagree with key order"
    );
    let mut expired = 0;
    for q in [
        path_query(3, &[]),
        path_query(4, &[]),
        path_query(4, &[(0, 1)]),
        path_query(4, &[(2, 0)]),
    ] {
        for delta in [1, 2, 3] {
            expired += assert_ledger_tracks_oracle(&q, &g, delta, false).0 .1;
        }
    }
    assert!(expired > 0, "the burst stream produced no embedding");
}

#[test]
fn nested_case1_candidates_straddle_the_minimum() {
    // A 4-edge path whose last two edges are temporally unrelated to
    // everything: whenever the search reaches them they are Case-1 nodes,
    // one nested in the other, each over three or four parallel candidates.
    // The first two edges (e0 ≺ e1) sit at times between those candidates,
    // so the minimum of an embedding's other edges has Case-1 candidates on
    // both sides: some embeddings are charged to a candidate, the rest to
    // that minimum.
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(5, 0);
    for (a, b, times) in [
        (0u32, 1u32, &[4i64, 9][..]),
        (1, 2, &[6, 11]),
        (2, 3, &[2, 5, 8, 12]),
        (3, 4, &[1, 7, 7, 10, 13]),
    ] {
        for &t in times {
            gb.edge(v + a, v + b, t);
        }
    }
    let g = gb.build().unwrap();
    let mut clones = 0;
    for q in [
        path_query(5, &[(0, 1)]),
        path_query(5, &[]),
        path_query(5, &[(0, 1), (2, 3)]),
        path_query(5, &[(3, 1)]),
    ] {
        for delta in [5, 9, 14] {
            let ((occurred, expired), c) = assert_ledger_tracks_oracle(&q, &g, delta, false);
            assert_eq!(occurred, expired, "the stream drains");
            clones += c;
        }
    }
    assert!(clones > 0, "no Case-1 node folded anything");
}

#[test]
fn a_seed_that_is_its_own_minimum() {
    // A one-edge query: every embedding is its seed, charged to itself the
    // instant it is found. Parallel edges, two of them in one instant.
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(2, 0);
    for t in [3, 1, 3, 2] {
        gb.edge(v, v + 1, t);
    }
    let g = gb.build().unwrap();
    for delta in [1, 2, 5] {
        let ((occurred, _), _) = assert_ledger_tracks_oracle(&path_query(2, &[]), &g, delta, false);
        // Both orientations of each of the four edges.
        assert_eq!(occurred, 8);
    }
}

/// A query admitted after `admit_at` service steps, once behind a counting
/// sink and once behind a collecting one, must from then on report what the
/// oracle reports event by event — including the expiry of embeddings that
/// occurred before it was resident, which only a ledger seeded from the
/// populated window can count.
fn assert_admitted_ledger_tracks_oracle(
    q: &QueryGraph,
    g: &TemporalGraph,
    delta: i64,
    admit_at: usize,
) -> u64 {
    let want = oracle_per_event(q, g, delta, false);
    let mut inherited = 0;
    for batching in [false, true] {
        for threads in [0, 2] {
            let cfg = ServiceConfig {
                shards: 2,
                threads,
                batching,
                ..ServiceConfig::default()
            };
            let mut svc = MatchService::new(g, delta, cfg).expect("service builds");
            svc.set_audit(AuditLevel::Deep, 1);
            for _ in 0..admit_at {
                assert!(svc.step());
            }
            let (sink, counts) = CountingSink::new();
            let counted = svc.add_query(q, EngineConfig::default(), Box::new(sink));
            let (sink, got) = CollectingSink::new();
            svc.add_query(q, EngineConfig::default(), Box::new(sink));
            let ctx =
                format!("admitted at step {admit_at}, batching {batching}, threads {threads}");
            let mut cursor = svc.events_processed();
            let mut seen = (0, 0);
            while svc.step() {
                let expect = sum(&want[cursor..svc.events_processed()]);
                assert_eq!(
                    tally(&got.take()),
                    expect,
                    "materialised from {cursor} ({ctx})"
                );
                let now = (counts.occurred(), counts.expired());
                assert_eq!(
                    (now.0 - seen.0, now.1 - seen.1),
                    expect,
                    "counted from {cursor} ({ctx})"
                );
                seen = now;
                cursor = svc.events_processed();
            }
            let s = svc.query_stats(counted).expect("resident");
            assert_eq!((s.occurred, s.expired), seen);
            inherited = inherited.max(s.expired.saturating_sub(s.occurred));
        }
    }
    inherited
}

#[test]
fn mid_stream_admission_seeds_the_ledger() {
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(5, 0);
    for t in 1..=24i64 {
        gb.edge(v + (t % 5) as u32, v + ((t + 1) % 5) as u32, t);
        if t % 3 == 0 {
            // Parallel edges, one of them sharing the instant.
            gb.edge(v + (t % 5) as u32, v + ((t + 1) % 5) as u32, t);
            gb.edge(v + ((t + 1) % 5) as u32, v + ((t + 2) % 5) as u32, t - 1);
        }
    }
    let g = gb.build().unwrap();
    let mut inherited = 0;
    for q in [
        path_query(3, &[(0, 1)]),
        path_query(4, &[]),
        path_query(4, &[(1, 2)]),
    ] {
        for admit_at in [0, 7, 20, 31] {
            inherited += assert_admitted_ledger_tracks_oracle(&q, &g, 8, admit_at);
        }
    }
    assert!(
        inherited > 0,
        "no admitted query saw a pre-admission embedding expire"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// Adversarial bursty multigraphs (most instants carry several arrivals
    /// and several expirations) against random partially ordered queries.
    #[test]
    fn ledger_tracks_the_oracle_on_bursty_multigraphs(
        g in arb_bursty_graph(),
        q in arb_query(),
        delta in 1i64..8,
        directed in any::<bool>(),
    ) {
        assert_ledger_tracks_oracle(&q, &g, delta, directed);
    }
}
