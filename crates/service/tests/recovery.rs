//! Kill-and-resume differential suite plus the corrupt-snapshot corpus.
//!
//! The differential pins the checkpoint contract: a service checkpointed
//! after `k` steps, dropped, and restored must deliver the **byte-identical
//! match-stream suffix** of an uninterrupted run — across shard counts,
//! thread widths, both stream regimes, synthetic workloads, the mini-SNAP
//! fixture, and a Table III bursty profile.
//!
//! The corpus pins the robustness contract: every corruption mode
//! (truncation at any point, flipped bytes, wrong magic/version/kind,
//! section-length lies with a forged checksum, mixed checkpoint
//! generations, missing files) surfaces as a precise typed error under
//! [`RecoveryPolicy::Strict`] and recovers transparently under
//! [`RecoveryPolicy::Rebuild`] — and never, ever panics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tcsm_core::{EngineConfig, MatchEvent, MatchKind};
use tcsm_graph::io::{parse_snap, SnapOptions};
use tcsm_graph::{
    EventQueue, QueryGraph, QueryGraphBuilder, TemporalGraph, TemporalGraphBuilder, Ts,
};
use tcsm_service::{
    CollectedMatches, CollectingSink, CountingSink, MatchService, QueryId, RecoveryPolicy,
    ResultSink, ServiceConfig, ShardPolicy, SnapshotError,
};

const MINI_SNAP: &str = include_str!("../../datasets/fixtures/mini-snap.txt");

/// A fresh scratch directory under the system temp dir (no tempfile crate
/// in this environment); removed and recreated per call.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcsm-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn workload() -> (Vec<QueryGraph>, TemporalGraph) {
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(5, 0);
    for t in 1..=30i64 {
        gb.edge(v + (t % 5) as u32, v + ((t + 1) % 5) as u32, t);
    }
    let g = gb.build().unwrap();
    let queries = (2..=4usize)
        .map(|k| {
            let mut qb = QueryGraphBuilder::new();
            let vs: Vec<_> = (0..=k).map(|_| qb.vertex(0)).collect();
            let mut prev = None;
            for i in 0..k {
                let e = qb.edge(vs[i], vs[i + 1]);
                if let Some(p) = prev {
                    qb.precede(p, e);
                }
                prev = Some(e);
            }
            qb.build().unwrap()
        })
        .collect();
    (queries, g)
}

fn serial_cfg() -> EngineConfig {
    EngineConfig {
        threads: 0,
        batching: false,
        directed: false,
        ..EngineConfig::default()
    }
}

fn svc_cfg(shards: usize, threads: usize, batching: bool, directed: bool) -> ServiceConfig {
    ServiceConfig {
        shards,
        policy: ShardPolicy::LabelLocality,
        threads,
        batching,
        directed,
    }
}

/// Runs the full stream uninterrupted, returning each query's deliveries
/// split at step `kill_at` (prefix, suffix).
fn uninterrupted(
    g: &TemporalGraph,
    delta: i64,
    queries: &[QueryGraph],
    cfg: ServiceConfig,
    kill_at: usize,
) -> Vec<(QueryId, Vec<MatchEvent>, Vec<MatchEvent>)> {
    let ecfg = EngineConfig {
        directed: cfg.directed,
        ..serial_cfg()
    };
    let mut svc = MatchService::new(g, delta, cfg).unwrap();
    let handles: Vec<(QueryId, CollectedMatches)> = queries
        .iter()
        .map(|q| {
            let (sink, got) = CollectingSink::new();
            (svc.add_query(q, ecfg, Box::new(sink)), got)
        })
        .collect();
    for _ in 0..kill_at {
        // Batching merges deltas, so a nominal kill point may land past the
        // end; both runs clamp identically, keeping the differential valid.
        if !svc.step() {
            break;
        }
    }
    let prefixes: Vec<Vec<MatchEvent>> = handles.iter().map(|(_, got)| got.take()).collect();
    svc.run();
    handles
        .into_iter()
        .zip(prefixes)
        .map(|((id, got), prefix)| (id, prefix, got.take()))
        .collect()
}

/// Runs to `kill_at`, checkpoints into `dir`, and drops the service —
/// the "killed" process. Returns the admitted ids in admission order.
fn run_and_checkpoint(
    g: &TemporalGraph,
    delta: i64,
    queries: &[QueryGraph],
    cfg: ServiceConfig,
    kill_at: usize,
    dir: &Path,
) -> Vec<QueryId> {
    let ecfg = EngineConfig {
        directed: cfg.directed,
        ..serial_cfg()
    };
    let mut svc = MatchService::new(g, delta, cfg).unwrap();
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|q| {
            let (sink, _got) = CollectingSink::new();
            svc.add_query(q, ecfg, Box::new(sink))
        })
        .collect();
    for _ in 0..kill_at {
        if !svc.step() {
            break;
        }
    }
    svc.checkpoint(dir).expect("checkpoint succeeds");
    ids
}

/// Restores from `dir` and drains the stream; returns per-query deliveries.
fn resume(
    g: &TemporalGraph,
    dir: &Path,
    policy: RecoveryPolicy,
) -> HashMap<QueryId, Vec<MatchEvent>> {
    let mut sinks: HashMap<QueryId, CollectedMatches> = HashMap::new();
    let mut svc = MatchService::restore(g, dir, policy, |qid| {
        let (sink, got) = CollectingSink::new();
        sinks.insert(qid, got);
        Box::new(sink)
    })
    .expect("restore succeeds");
    svc.run();
    sinks
        .into_iter()
        .map(|(id, got)| (id, got.take()))
        .collect()
}

/// The tentpole differential: checkpoint at several kill points across
/// shards × threads × regimes; the resumed suffix must be byte-identical.
fn kill_and_resume_case(
    g: &TemporalGraph,
    delta: i64,
    queries: &[QueryGraph],
    cfg: ServiceConfig,
    tag: &str,
) {
    let total = 2 * g.edges().len();
    for kill_at in [0, 1, total / 3, total / 2, total.saturating_sub(1)] {
        let split = uninterrupted(g, delta, queries, cfg, kill_at);
        let dir = scratch(&format!("{tag}-{kill_at}"));
        run_and_checkpoint(g, delta, queries, cfg, kill_at, &dir);
        let resumed = resume(g, &dir, RecoveryPolicy::Strict);
        assert_eq!(resumed.len(), queries.len());
        for (id, _prefix, suffix) in &split {
            assert_eq!(
                &resumed[id], suffix,
                "resumed stream diverged for {id} (kill at {kill_at}, {tag})"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_and_resume_matrix() {
    let (queries, g) = workload();
    for shards in [1usize, 2] {
        for threads in [0usize, 2] {
            for batching in [false, true] {
                kill_and_resume_case(
                    &g,
                    10,
                    &queries,
                    svc_cfg(shards, threads, batching, false),
                    &format!("matrix-s{shards}-t{threads}-b{}", batching as u8),
                );
            }
        }
    }
}

#[test]
fn kill_and_resume_mini_snap() {
    let g = parse_snap(MINI_SNAP, &SnapOptions::default()).expect("fixture parses");
    let queries = {
        let mut qb = QueryGraphBuilder::new();
        let (a, b, c) = (qb.vertex(0), qb.vertex(0), qb.vertex(0));
        let (e0, e1) = (qb.edge(a, b), qb.edge(b, c));
        qb.precede(e0, e1);
        vec![qb.build().unwrap()]
    };
    let span = (g.edges().last().unwrap().time.raw() - g.edges()[0].time.raw()).max(1);
    kill_and_resume_case(
        &g,
        span / 4,
        &queries,
        svc_cfg(2, 2, true, true),
        "mini-snap",
    );
}

#[test]
fn kill_and_resume_bursty_profile() {
    // A Table III profile with bursty timestamps, so batched deltas span
    // many events and the checkpoint lands on real batch boundaries.
    let g = tcsm_datasets::profiles::SUPERUSER.generate_bursty(7, 0.05, 8);
    let (queries, _) = workload();
    let delta = tcsm_datasets::ingest::windows_for_stream(&g)[2];
    kill_and_resume_case(
        &g,
        delta,
        &queries[..2],
        svc_cfg(2, 0, true, true),
        "bursty",
    );
}

#[test]
fn restored_stats_match_uninterrupted() {
    let (queries, g) = workload();
    let cfg = svc_cfg(2, 0, false, false);
    let kill_at = 20;
    // Uninterrupted final stats.
    let mut svc = MatchService::new(&g, 10, cfg).unwrap();
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|q| svc.add_query(q, serial_cfg(), Box::new(CollectingSink::new().0)))
        .collect();
    svc.run();
    let expect: Vec<_> = ids
        .iter()
        .map(|&id| svc.query_stats(id).unwrap().semantic())
        .collect();
    let expect_svc = svc.stats();
    // Killed + resumed final stats.
    let dir = scratch("stats");
    run_and_checkpoint(&g, 10, &queries, cfg, kill_at, &dir);
    let mut svc = MatchService::restore(&g, &dir, RecoveryPolicy::Strict, |_| {
        Box::new(CollectingSink::new().0)
    })
    .unwrap();
    svc.run();
    for (&id, want) in ids.iter().zip(&expect) {
        assert_eq!(
            &svc.query_stats(id).unwrap().semantic(),
            want,
            "per-query stats diverged after restore"
        );
    }
    let got_svc = svc.stats();
    assert_eq!(got_svc.events, expect_svc.events);
    assert_eq!(got_svc.admitted, expect_svc.admitted);
    assert_eq!(got_svc.resident_queries, expect_svc.resident_queries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_after_retirement_restores_retired_stats() {
    let (queries, g) = workload();
    let cfg = svc_cfg(2, 0, false, false);
    let mut svc = MatchService::new(&g, 10, cfg).unwrap();
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|q| svc.add_query(q, serial_cfg(), Box::new(CollectingSink::new().0)))
        .collect();
    for _ in 0..20 {
        svc.step();
    }
    let retired_stats = svc.remove_query(ids[0]).unwrap();
    let dir = scratch("retired");
    svc.checkpoint(&dir).unwrap();
    let svc = MatchService::restore(&g, &dir, RecoveryPolicy::Strict, |_| {
        Box::new(CollectingSink::new().0)
    })
    .unwrap();
    assert_eq!(svc.query_stats(ids[0]), Some(&retired_stats));
    assert_eq!(svc.stats().retired, 1);
    assert!(svc.shard_of(ids[0]).is_none(), "retired query not resident");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Occurrences reported after the cut that use a data edge from before it:
/// their pre-cut edges entered DCS edge groups the runtime did not see
/// arrive, so they can only be enumerated from a rebuilt adjacency index.
fn straddling_occurrences(events: &[MatchEvent], g: &TemporalGraph, cut: Ts) -> usize {
    events
        .iter()
        .filter(|m| m.kind == MatchKind::Occurred && m.at > cut)
        .filter(|m| m.embedding.edge_times(g).iter().any(|&t| t <= cut))
        .count()
}

#[test]
fn restore_and_admission_rebuild_the_adjacency_index() {
    // The DCS adjacency index is derived state: a snapshot does not carry
    // it and a mid-stream admission never saw the arrivals that would have
    // built it. Both paths must hand `FindMatches` an index equal to the
    // uninterrupted one — and the resumed streams must actually contain
    // matches reached through vertex extension over pre-existing groups,
    // so that an empty (forgotten) index cannot pass vacuously.
    let (queries, g) = workload();
    let delta = 10;
    let cfg = svc_cfg(2, 0, false, false);
    let kill_at = g.edges().len(); // mid-stream: half of the 2·|E| events
    let cut = EventQueue::new(&g, delta).unwrap().events()[kill_at - 1].at;

    // Checkpoint → restore.
    let split = uninterrupted(&g, delta, &queries, cfg, kill_at);
    let dir = scratch("index-rebuild");
    run_and_checkpoint(&g, delta, &queries, cfg, kill_at, &dir);
    let resumed = resume(&g, &dir, RecoveryPolicy::Strict);
    for (id, _prefix, suffix) in &split {
        assert_eq!(&resumed[id], suffix, "resumed stream diverged for {id}");
        assert!(
            straddling_occurrences(suffix, &g, cut) > 0,
            "{id}: no post-restore match extends over a pre-checkpoint edge"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Mid-stream admission through `sync_to_window`.
    let mut svc = MatchService::new(&g, delta, cfg).unwrap();
    // A resident from the first event keeps the shard windows populated.
    svc.add_query(&queries[0], serial_cfg(), Box::new(CollectingSink::new().0));
    for _ in 0..kill_at {
        assert!(svc.step());
    }
    let admitted: Vec<CollectedMatches> = queries
        .iter()
        .map(|q| {
            let (sink, got) = CollectingSink::new();
            svc.add_query(q, serial_cfg(), Box::new(sink));
            got
        })
        .collect();
    svc.run();
    for ((id, _prefix, suffix), got) in split.iter().zip(admitted) {
        let got = got.take();
        assert_eq!(&got, suffix, "admitted twin of {id} diverged");
        assert!(straddling_occurrences(&got, &g, cut) > 0);
    }
}

#[test]
fn restore_seeds_the_expiry_ledger() {
    // The expiry ledger is derived state too: a snapshot does not carry it,
    // and the embeddings alive at the checkpoint occurred in another
    // process. Restored behind counting sinks (expirations read off the
    // ledger) and behind collecting ones (the ledger decides which
    // expirations need a search), the per-step counts must equal the
    // uninterrupted run's and the collected stream must be its suffix,
    // under the Deep audit's per-step ledger recount.
    let (queries, g) = workload();
    let delta = 10;
    let kill_at = g.edges().len(); // mid-window: the first expirations are due
    for batching in [false, true] {
        let cfg = svc_cfg(2, 0, batching, false);
        let mut reference = MatchService::new(&g, delta, cfg).unwrap();
        let handles: Vec<(QueryId, CollectedMatches)> = queries
            .iter()
            .map(|q| {
                let (sink, got) = CollectingSink::new();
                (reference.add_query(q, serial_cfg(), Box::new(sink)), got)
            })
            .collect();
        for _ in 0..kill_at {
            if !reference.step() {
                break;
            }
        }
        let dir = scratch(&format!("ledger-b{}", batching as u8));
        reference.checkpoint(&dir).expect("checkpoint succeeds");
        let alive_at_cut: u64 = handles
            .iter()
            .map(|(id, got)| {
                got.take(); // keep only the suffix
                let s = reference.query_stats(*id).unwrap();
                s.occurred - s.expired
            })
            .sum();
        assert!(alive_at_cut > 0, "no embedding straddles the checkpoint");

        let mut collected: HashMap<QueryId, CollectedMatches> = HashMap::new();
        let mut restored: Vec<MatchService> = [true, false]
            .into_iter()
            .map(|counting| {
                let mut svc = MatchService::restore(&g, &dir, RecoveryPolicy::Strict, |qid| {
                    if counting {
                        Box::new(CountingSink::new().0) as Box<dyn ResultSink>
                    } else {
                        let (sink, got) = CollectingSink::new();
                        collected.insert(qid, got);
                        Box::new(sink)
                    }
                })
                .expect("restore succeeds");
                svc.set_audit(tcsm_core::AuditLevel::Deep, 1);
                svc
            })
            .collect();
        loop {
            let more = reference.step();
            for svc in &mut restored {
                assert_eq!(svc.step(), more);
                for (id, _) in &handles {
                    let (want, got) = (reference.query_stats(*id), svc.query_stats(*id));
                    let counts = |s: Option<&tcsm_core::EngineStats>| {
                        s.map(|s| (s.occurred, s.expired)).expect("resident")
                    };
                    assert_eq!(
                        counts(got),
                        counts(want),
                        "restored counts of {id} diverged at event {} (batching {batching})",
                        reference.events_processed()
                    );
                }
            }
            if !more {
                break;
            }
        }
        for (id, got) in &handles {
            assert_eq!(collected[id].take(), got.take(), "restored stream of {id}");
            let s = reference.query_stats(*id).unwrap();
            assert_eq!(s.occurred, s.expired, "the stream drains");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- corrupt-snapshot corpus -------------------------------------------

/// Builds a reference checkpoint and returns (graph, queries, dir,
/// per-query uninterrupted suffixes at the kill point).
fn corpus_checkpoint(tag: &str) -> (TemporalGraph, Vec<QueryGraph>, PathBuf, usize) {
    let (queries, g) = workload();
    let dir = scratch(tag);
    let kill_at = 20;
    run_and_checkpoint(&g, 10, &queries, svc_cfg(2, 0, false, false), kill_at, &dir);
    (g, queries, dir, kill_at)
}

fn strict_restore_err(g: &TemporalGraph, dir: &Path) -> SnapshotError {
    match MatchService::restore(g, dir, RecoveryPolicy::Strict, |_| {
        Box::new(CollectingSink::new().0)
    }) {
        Ok(_) => panic!("corrupt checkpoint restored under Strict"),
        Err(e) => e,
    }
}

/// Asserts Rebuild restores and the resumed stream equals the
/// uninterrupted suffix (shard corruption only — manifest corruption is
/// fatal under both policies).
fn rebuild_recovers(
    g: &TemporalGraph,
    delta: i64,
    queries: &[QueryGraph],
    cfg: ServiceConfig,
    kill_at: usize,
    dir: &Path,
    what: &str,
) {
    let split = uninterrupted(g, delta, queries, cfg, kill_at);
    let resumed = resume(g, dir, RecoveryPolicy::Rebuild);
    for (id, _prefix, suffix) in &split {
        assert_eq!(
            &resumed[id], suffix,
            "rebuild recovery diverged for {id} after {what}"
        );
    }
}

/// Every prefix truncation of every snapshot file must surface as a typed
/// error under Strict; shard truncations must recover under Rebuild.
#[test]
fn corpus_truncations() {
    let (g, queries, dir, kill_at) = corpus_checkpoint("trunc");
    let files = ["manifest.tcsm", "shard-0.tcsm", "shard-1.tcsm"];
    for file in files {
        let path = dir.join(file);
        let whole = std::fs::read(&path).unwrap();
        for keep in [0, 1, 8, whole.len() / 2, whole.len() - 1] {
            std::fs::write(&path, &whole[..keep]).unwrap();
            let err = strict_restore_err(&g, &dir);
            assert!(
                matches!(err, SnapshotError::Codec { .. }),
                "truncation of {file} to {keep} gave {err}"
            );
            if file != "manifest.tcsm" {
                rebuild_recovers(
                    &g,
                    10,
                    &queries,
                    svc_cfg(2, 0, false, false),
                    kill_at,
                    &dir,
                    &format!("{file} truncated to {keep}"),
                );
            }
        }
        std::fs::write(&path, &whole).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-byte flips anywhere in a frame (header, payload, checksum) are
/// detected; manifest flips are fatal both ways, shard flips rebuild.
#[test]
fn corpus_byte_flips() {
    let (g, queries, dir, kill_at) = corpus_checkpoint("flip");
    for file in ["manifest.tcsm", "shard-0.tcsm"] {
        let path = dir.join(file);
        let whole = std::fs::read(&path).unwrap();
        let step = (whole.len() / 17).max(1);
        for at in (0..whole.len()).step_by(step).chain([whole.len() - 1]) {
            let mut bad = whole.clone();
            bad[at] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            let err = strict_restore_err(&g, &dir);
            assert!(
                matches!(
                    err,
                    SnapshotError::Codec { .. } | SnapshotError::Mismatch(_)
                ),
                "flip at {at} of {file} gave {err}"
            );
        }
        std::fs::write(&path, &whole).unwrap();
    }
    // One representative shard flip must also rebuild cleanly.
    let path = dir.join("shard-1.tcsm");
    let whole = std::fs::read(&path).unwrap();
    let mut bad = whole.clone();
    bad[whole.len() / 2] ^= 0xff;
    std::fs::write(&path, &bad).unwrap();
    rebuild_recovers(
        &g,
        10,
        &queries,
        svc_cfg(2, 0, false, false),
        kill_at,
        &dir,
        "shard-1 byte flip",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wrong magic / wrong version / wrong frame kind give the precise typed
/// error, not a generic checksum failure.
#[test]
fn corpus_header_lies() {
    let (g, _queries, dir, _) = corpus_checkpoint("header");
    let path = dir.join("manifest.tcsm");
    let whole = std::fs::read(&path).unwrap();

    let mut bad = whole.clone();
    bad[0] = b'X';
    std::fs::write(&path, &bad).unwrap();
    let err = strict_restore_err(&g, &dir);
    assert!(
        matches!(
            &err,
            SnapshotError::Codec {
                source: tcsm_graph::CodecError::BadMagic(_),
                ..
            }
        ),
        "got {err}"
    );

    let mut bad = whole.clone();
    bad[4] = 0x63; // format version 99
    std::fs::write(&path, &bad).unwrap();
    let err = strict_restore_err(&g, &dir);
    assert!(
        matches!(
            &err,
            SnapshotError::Codec {
                source: tcsm_graph::CodecError::UnsupportedVersion(99),
                ..
            }
        ),
        "got {err}"
    );

    // A shard frame stored under the manifest name: wrong kind byte.
    let shard = std::fs::read(dir.join("shard-0.tcsm")).unwrap();
    std::fs::write(&path, &shard).unwrap();
    let err = strict_restore_err(&g, &dir);
    assert!(
        matches!(
            &err,
            SnapshotError::Codec {
                source: tcsm_graph::CodecError::BadKind { .. },
                ..
            }
        ),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A section length lie with a **forged (recomputed) checksum** — the
/// checksum cannot catch it, the bounds check must.
#[test]
fn corpus_section_length_lie_with_forged_checksum() {
    let (g, queries, dir, kill_at) = corpus_checkpoint("seclie");
    let path = dir.join("shard-0.tcsm");
    let whole = std::fs::read(&path).unwrap();
    // Shard payload layout: fingerprint u64, cursor u64, shard-index u64,
    // then the window section's 8-byte length at offset 9 + 24 = 33.
    let mut bad = whole.clone();
    bad[33..41].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let body_end = bad.len() - 8;
    let sum = tcsm_graph::codec::fnv1a(&bad[..body_end]);
    bad[body_end..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    let err = strict_restore_err(&g, &dir);
    assert!(
        matches!(
            &err,
            SnapshotError::Codec {
                source: tcsm_graph::CodecError::SectionLength { .. },
                ..
            }
        ),
        "got {err}"
    );
    rebuild_recovers(
        &g,
        10,
        &queries,
        svc_cfg(2, 0, false, false),
        kill_at,
        &dir,
        "section-length lie",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing shard file errors under Strict and rebuilds under Rebuild.
#[test]
fn corpus_missing_shard_file() {
    let (g, queries, dir, kill_at) = corpus_checkpoint("missing");
    std::fs::remove_file(dir.join("shard-1.tcsm")).unwrap();
    let err = strict_restore_err(&g, &dir);
    assert!(matches!(err, SnapshotError::Io { .. }), "got {err}");
    rebuild_recovers(
        &g,
        10,
        &queries,
        svc_cfg(2, 0, false, false),
        kill_at,
        &dir,
        "missing shard file",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard file left over from an older checkpoint generation (crash
/// between shard writes) is detected by its fingerprint/cursor stamp.
#[test]
fn corpus_mixed_generations() {
    let (queries, g) = workload();
    let cfg = svc_cfg(2, 0, false, false);
    let dir = scratch("mixedgen");
    let mut svc = MatchService::new(&g, 10, cfg).unwrap();
    for q in &queries {
        svc.add_query(q, serial_cfg(), Box::new(CollectingSink::new().0));
    }
    for _ in 0..10 {
        svc.step();
    }
    svc.checkpoint(&dir).unwrap();
    let old_shard = std::fs::read(dir.join("shard-0.tcsm")).unwrap();
    for _ in 0..10 {
        svc.step();
    }
    svc.checkpoint(&dir).unwrap();
    drop(svc);
    // Simulate the torn multi-file checkpoint: shard-0 from the older run.
    std::fs::write(dir.join("shard-0.tcsm"), &old_shard).unwrap();
    let err = strict_restore_err(&g, &dir);
    assert!(matches!(err, SnapshotError::Codec { .. }), "got {err}");
    rebuild_recovers(&g, 10, &queries, cfg, 20, &dir, "mixed generations");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restoring against a different stream is refused by the fingerprint.
#[test]
fn corpus_wrong_stream_is_refused() {
    let (_g, _queries, dir, _) = corpus_checkpoint("wrongstream");
    let mut gb = TemporalGraphBuilder::new();
    let v = gb.vertices(5, 0);
    gb.edge(v, v + 1, 1);
    let other = gb.build().unwrap();
    for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Rebuild] {
        let err = match MatchService::restore(&other, &dir, policy, |_| {
            Box::new(CollectingSink::new().0)
        }) {
            Ok(_) => panic!("restored against the wrong stream"),
            Err(e) => e,
        };
        assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Manifest corruption is fatal under Rebuild too — query definitions
/// cannot be rebuilt from the stream.
#[test]
fn corpus_manifest_corruption_is_fatal_under_rebuild() {
    let (g, _queries, dir, _) = corpus_checkpoint("manifest-rebuild");
    let path = dir.join("manifest.tcsm");
    let whole = std::fs::read(&path).unwrap();
    std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();
    let err = match MatchService::restore(&g, &dir, RecoveryPolicy::Rebuild, |_| {
        Box::new(CollectingSink::new().0)
    }) {
        Ok(_) => panic!("truncated manifest restored under Rebuild"),
        Err(e) => e,
    };
    assert!(matches!(err, SnapshotError::Codec { .. }), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry is observational: snapshots taken at every trace level are
/// byte-identical (timing is never serialized), and a restored service
/// carries no phase timings from its previous life.
#[test]
fn snapshots_are_byte_identical_across_trace_levels() {
    use std::sync::Arc;
    use tcsm_telemetry::{ManualClock, TraceLevel};
    let (queries, g) = workload();
    let cfg = svc_cfg(2, 0, false, false);
    let ecfg = EngineConfig {
        directed: cfg.directed,
        ..serial_cfg()
    };
    let mut dumps: Vec<(TraceLevel, PathBuf)> = Vec::new();
    for (tag, level) in [
        ("off", TraceLevel::Off),
        ("counters", TraceLevel::Counters),
        ("spans", TraceLevel::Spans),
    ] {
        let dir = scratch(&format!("trace-{tag}"));
        let mut svc = MatchService::new(&g, 10, cfg).unwrap();
        for q in &queries {
            svc.add_query(q, ecfg, Box::new(CollectingSink::new().0));
        }
        svc.set_trace(level, Arc::new(ManualClock::new(5)));
        for _ in 0..9 {
            svc.step();
        }
        svc.checkpoint(&dir).expect("checkpoint succeeds");
        if level == TraceLevel::Counters {
            assert!(
                svc.telemetry().total_us() > 0,
                "counters run must actually record timings"
            );
        }
        dumps.push((level, dir));
    }
    let files = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        out.sort();
        out
    };
    let baseline = files(&dumps[0].1);
    assert!(!baseline.is_empty(), "checkpoint wrote files");
    for (level, dir) in &dumps[1..] {
        assert_eq!(
            files(dir),
            baseline,
            "{level:?} snapshot differs from Off snapshot"
        );
    }
    // A restored service starts with a fresh recorder: the previous
    // process's timings do not leak through the snapshot.
    let restored = MatchService::restore(&g, &dumps[1].1, RecoveryPolicy::Strict, |_| {
        Box::new(CollectingSink::new().0)
    })
    .expect("restore succeeds");
    for phase in tcsm_telemetry::Phase::ALL {
        if phase == tcsm_telemetry::Phase::Restore {
            continue; // the restore itself may be timed (env-gated)
        }
        assert!(
            restored.telemetry().histogram(phase).is_none(),
            "{phase:?} timings leaked through the snapshot"
        );
    }
}
