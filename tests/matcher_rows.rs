//! Coverage for the matcher's DCS-row enumeration, differentially against
//! the brute-force oracle: the shapes the rewrite's bookkeeping depends on
//! (group ids carried through several merge compactions, seeds in buckets
//! that drain inside their own expiration batch, label-only DCS rows as
//! long as the window's adjacency). Debug builds additionally check, at
//! every edge node, that the threaded group id is the group of the mapped
//! endpoint images.

mod common;

use common::normalize;
use proptest::prelude::*;
use tcsm::baselines::OracleEngine;
use tcsm::prelude::*;

const PRESETS: [AlgorithmPreset; 4] = [
    AlgorithmPreset::Tcm,
    AlgorithmPreset::TcmNoPruning,
    AlgorithmPreset::TcmNoFilter,
    AlgorithmPreset::SymBiPostCheck,
];

fn oracle(q: &QueryGraph, g: &TemporalGraph, delta: i64, directed: bool) -> Vec<MatchEvent> {
    OracleEngine::new(q, g, delta, directed)
        .expect("oracle builds")
        .run()
}

/// Runs one preset serially and batched (deep-audited after every step) and
/// requires both to equal the oracle's event multiset.
fn assert_matches_oracle(q: &QueryGraph, g: &TemporalGraph, delta: i64, directed: bool) -> usize {
    let expected = normalize(oracle(q, g, delta, directed));
    for preset in PRESETS {
        for batching in [false, true] {
            let cfg = EngineConfig {
                preset,
                directed,
                batching,
                ..Default::default()
            };
            let mut e = TcmEngine::new(q, g, delta, cfg).expect("engine builds");
            let mut out = Vec::new();
            while if batching {
                e.step_batch(&mut out)
            } else {
                e.step(&mut out)
            } {
                e.check_consistency();
            }
            assert_eq!(
                expected,
                normalize(out),
                "{preset:?} (batching {batching}) diverged from the oracle"
            );
        }
    }
    expected.len()
}

/// `K4`: whichever vertex is extended last has three mapped neighbours, so
/// its candidates go through a pivot row and two merge compactions, each
/// appending one group id per survivor.
fn k4(order: &[(usize, usize)]) -> QueryGraph {
    let mut qb = QueryGraphBuilder::new();
    let v: Vec<_> = (0..4).map(|_| qb.vertex(0)).collect();
    for a in 0..4 {
        for b in a + 1..4 {
            qb.edge(v[a], v[b]);
        }
    }
    for &(x, y) in order {
        qb.precede(x, y);
    }
    qb.build().expect("K4 is a valid query")
}

#[test]
fn three_mapped_neighbours_keep_group_ids_aligned() {
    // A 6-clique of one label with parallel edges at staggered times: the
    // last K4 vertex has many candidates, and compaction has to drop some
    // (non-adjacent images exist once edges expire).
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(6, 0);
    let mut t = 0i64;
    for round in 0..2 {
        for a in 0..6u32 {
            for b in a + 1..6u32 {
                if (a + b + round) % 4 == 3 {
                    continue; // leave holes so rows differ between vertices
                }
                t += 1;
                gb.edge(v + a, v + b, t);
            }
        }
    }
    let g = gb.build().unwrap();
    // Edge ids: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5.
    let total_order = k4(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let partial_order = k4(&[(0, 5), (3, 2)]);
    let unordered = k4(&[]);
    let mut reported = 0;
    for q in [&total_order, &partial_order, &unordered] {
        reported += assert_matches_oracle(q, &g, 14, false);
    }
    assert!(reported > 0, "the clique stream produced no K4 embedding");
}

#[test]
fn seed_in_a_bucket_draining_inside_its_own_expiration_batch() {
    // Three parallel (0,1) edges share one arrival instant, so they expire
    // in one batch that drains their bucket; every one of them seeds an
    // expiring-embedding search that must see the later batch records and
    // not the earlier ones, and the path's other edge is read through a
    // group whose bucket drains in the same batch one seed later.
    let mut qb = QueryGraphBuilder::new();
    let (a, b, c) = (qb.vertex(0), qb.vertex(0), qb.vertex(0));
    let (e0, e1) = (qb.edge(a, b), qb.edge(b, c));
    let ordered = {
        let mut qb = qb.clone();
        qb.precede(e1, e0);
        qb.build().unwrap()
    };
    let unordered = qb.build().unwrap();
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(4, 0);
    gb.edge(v + 1, v + 2, 1);
    gb.edge(v + 1, v + 2, 2);
    for _ in 0..3 {
        gb.edge(v, v + 1, 2);
    }
    gb.edge(v + 2, v + 3, 2);
    gb.edge(v, v + 1, 3);
    gb.edge(v + 2, v + 3, 5);
    let g = gb.build().unwrap();
    for delta in [2, 3, 5] {
        for q in [&ordered, &unordered] {
            assert!(assert_matches_oracle(q, &g, delta, false) > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// Dense one-label multigraphs against cyclic queries (triangle with a
    /// tail, K4 minus an edge): every vertex extension past the seed has two
    /// or three mapped neighbours, under all four presets — the label-only
    /// ones make every DCS row as long as the window's adjacency row.
    #[test]
    fn cyclic_queries_match_the_oracle(
        edges in prop::collection::vec((0u32..5, 0u32..5, 1i64..9), 8..26),
        order_pairs in prop::collection::vec((0usize..5, 0usize..5), 0..4),
        diamond in any::<bool>(),
        delta in 2i64..7,
        directed in any::<bool>(),
    ) {
        let mut gb = TemporalGraphBuilder::new();
        let v = gb.vertices(5, 0);
        for (a, b, t) in edges {
            if a != b {
                gb.edge(v + a, v + b, t);
            }
        }
        let g = gb.build().expect("valid random graph");
        let mut qb = QueryGraphBuilder::new();
        let u: Vec<_> = (0..4).map(|_| qb.vertex(0)).collect();
        qb.edge(u[0], u[1]);
        qb.edge(u[1], u[2]);
        qb.edge(u[2], u[0]);
        qb.edge(u[2], u[3]);
        if diamond {
            qb.edge(u[3], u[0]);
        }
        let m = 4 + diamond as usize;
        for (x, y) in order_pairs {
            let (x, y) = (x % m, y % m);
            if x != y {
                qb.precede(x.min(y), x.max(y));
            }
        }
        let q = qb.build().expect("valid query");
        assert_matches_oracle(&q, &g, delta, directed);
    }
}
