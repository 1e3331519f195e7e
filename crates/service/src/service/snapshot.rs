//! Crash-safe checkpoint/restore for [`MatchService`] (see the crate docs'
//! "Checkpoint & recovery" section for the contract).
//!
//! # File layout
//!
//! A checkpoint directory holds one [`codec`](tcsm_graph::codec) frame per
//! shard (`shard-<i>.tcsm`, kind [`KIND_SHARD`]) plus a `manifest.tcsm`
//! (kind [`KIND_MANIFEST`]) written **last**. Every file is written to a
//! `.tmp` sibling, fsynced, then renamed into place, so a crash during
//! [`MatchService::checkpoint`] never leaves a torn file under the final
//! name — at worst a stale-but-complete previous generation, or no
//! manifest at all (no checkpoint).
//!
//! The manifest carries everything needed to *reconstruct* the service
//! shape (stream fingerprint, cursor, service config, query definitions
//! and engine configs, retired stats); the shard files carry the *dynamic*
//! state (window buckets, filter tables, DCS slabs, per-query stats).
//! Shard files repeat the fingerprint and cursor, so a directory holding
//! files from two different checkpoint generations (a crash between shard
//! writes) is detected as shard corruption rather than silently mixed.
//!
//! # Recovery
//!
//! Manifest problems are fatal under **both** [`RecoveryPolicy`]s — the
//! query definitions live there, and nothing can be rebuilt without them.
//! Shard-file problems are fatal under [`RecoveryPolicy::Strict`]; under
//! [`RecoveryPolicy::Rebuild`] the shard's window is replayed from the
//! stream prefix (`events[0..cursor]`) and every resident runtime is
//! re-derived with [`QueryRuntime::sync_to_window`] — the same machinery
//! mid-stream admission uses, so the resumed match stream is still exactly
//! the uninterrupted run's suffix. Rebuilt queries restart their stats
//! from zero (like a fresh admission); deliveries are per-delta count
//! deltas, so sinks are unaffected.

use super::*;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tcsm_graph::codec::{encode_frame, fnv1a, open_frame, CodecError, Decoder, Encoder};
use tcsm_graph::io::{parse_query_graph, write_query_graph};

/// Frame kind of `manifest.tcsm`.
pub const KIND_MANIFEST: u8 = 1;
/// Frame kind of `shard-<i>.tcsm`.
pub const KIND_SHARD: u8 = 2;

/// File name of the manifest frame.
pub const MANIFEST_FILE: &str = "manifest.tcsm";

/// File name of shard `i`'s frame.
pub fn shard_file(i: usize) -> String {
    format!("shard-{i}.tcsm")
}

/// What [`MatchService::restore`] does about a corrupt or missing shard
/// file. Manifest corruption is fatal either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Surface a typed [`SnapshotError`]; nothing is restored.
    #[default]
    Strict,
    /// Rebuild the shard from the stream prefix: replay the window to the
    /// checkpoint cursor and re-derive every resident runtime
    /// (per-query stats restart from zero, the match stream does not).
    Rebuild,
}

/// Typed checkpoint/restore failure. Restoring never panics: every
/// corruption mode of the snapshot corpus maps here.
#[derive(Debug)]
pub enum SnapshotError {
    /// A filesystem operation failed.
    Io {
        /// The file concerned.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A snapshot frame failed to decode or validate.
    Codec {
        /// The file concerned (its name within the checkpoint directory).
        file: String,
        /// The underlying decode failure.
        source: CodecError,
    },
    /// The snapshot does not describe this service's stream (wrong graph,
    /// wrong δ, or internally inconsistent manifest).
    Mismatch(String),
    /// A query definition in the manifest failed to parse, or the stream
    /// could not be opened.
    Graph(GraphError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot I/O on {}: {source}", path.display())
            }
            SnapshotError::Codec { file, source } => {
                write!(f, "corrupt snapshot frame {file}: {source}")
            }
            SnapshotError::Mismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
            SnapshotError::Graph(e) => write!(f, "snapshot query definition: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            SnapshotError::Codec { source, .. } => Some(source),
            SnapshotError::Mismatch(_) => None,
            SnapshotError::Graph(e) => Some(e),
        }
    }
}

impl From<GraphError> for SnapshotError {
    fn from(e: GraphError) -> SnapshotError {
        SnapshotError::Graph(e)
    }
}

/// FNV-1a over the stream identity (δ, vertex labels, every edge record).
/// Stamped into every frame so a snapshot can refuse to resume against a
/// different graph or window length.
fn stream_fingerprint(g: &TemporalGraph, delta: i64) -> u64 {
    let mut enc = Encoder::new();
    enc.put_i64(delta);
    enc.put_usize(g.labels().len());
    for &l in g.labels() {
        enc.put_u32(l);
    }
    enc.put_usize(g.edges().len());
    for e in g.edges() {
        enc.put_u32(e.key.0);
        enc.put_u32(e.src);
        enc.put_u32(e.dst);
        enc.put_ts(e.time);
        enc.put_u32(e.label);
    }
    fnv1a(&enc.into_bytes())
}

/// Writes `bytes` to `path` atomically: `.tmp` sibling, fsync, rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let run = |tmp: &Path| -> std::io::Result<()> {
        let mut f = fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(tmp, path)
    };
    let tmp = path.with_extension("tmp");
    run(&tmp).map_err(|source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn read_file(dir: &Path, name: &str) -> Result<Vec<u8>, SnapshotError> {
    let path = dir.join(name);
    fs::read(&path).map_err(|source| SnapshotError::Io { path, source })
}

fn codec_err(file: &str) -> impl Fn(CodecError) -> SnapshotError + '_ {
    move |source| SnapshotError::Codec {
        file: file.to_string(),
        source,
    }
}

/// One query definition from the manifest.
struct SlotDef {
    id: u32,
    q: QueryGraph,
    cfg: EngineConfig,
}

/// Everything the manifest carries.
struct Manifest {
    fingerprint: u64,
    delta: i64,
    cursor: usize,
    cfg: ServiceConfig,
    next_id: u32,
    stats: ServiceStats,
    /// Retired stats in retirement order (oldest first), so the restored
    /// service evicts in the same order the checkpointed one would have.
    retired: Vec<(u32, EngineStats)>,
    /// Per shard, in slot order.
    slots: Vec<Vec<SlotDef>>,
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let err = codec_err(MANIFEST_FILE);
    let mut dec = open_frame(bytes, KIND_MANIFEST).map_err(&err)?;
    let inner = |dec: &mut Decoder<'_>| -> Result<Manifest, CodecError> {
        let fingerprint = dec.get_u64()?;
        let delta = dec.get_i64()?;
        let cursor = dec.get_usize()?;
        let num_shards = dec.get_usize()?;
        if num_shards == 0 {
            return Err(CodecError::Invalid("manifest declares zero shards".into()));
        }
        let policy = match dec.get_u8()? {
            0 => ShardPolicy::LabelLocality,
            1 => ShardPolicy::Spread,
            other => {
                return Err(CodecError::Invalid(format!("bad policy tag {other}")));
            }
        };
        let cfg = ServiceConfig {
            shards: num_shards,
            policy,
            threads: dec.get_usize()?,
            batching: dec.get_bool()?,
            directed: dec.get_bool()?,
        };
        let next_id = dec.get_u32()?;
        let stats = ServiceStats {
            shards: num_shards,
            windows_allocated: dec.get_u64()?,
            resident_queries: 0,
            admitted: dec.get_u64()?,
            retired: dec.get_u64()?,
            disconnected: dec.get_u64()?,
            events: dec.get_u64()?,
            batches: dec.get_u64()?,
            // The stored kernel counters are the retired-side
            // accumulators; resident contributions are re-derived at
            // `stats()` time from the restored runtimes.
            kernel_invocations: dec.get_u64()?,
            kernel_lanes: dec.get_u64()?,
            kernel_early_exits: dec.get_u64()?,
            retired_stats_evictions: dec.get_u64()?,
        };
        let nretired = dec.get_count(4)?;
        let mut retired = Vec::with_capacity(nretired);
        let mut retired_seen = std::collections::HashSet::new();
        for _ in 0..nretired {
            // No `id < next_id` check: ids are a wrapping u32 space, so a
            // long-lived service legitimately holds ids at or above the
            // wrapped cursor. Duplicates are still refused.
            let id = dec.get_u32()?;
            let mut sec = dec.section()?;
            let st = EngineStats::decode(&mut sec)?;
            sec.finish()?;
            if !retired_seen.insert(id) {
                return Err(CodecError::Invalid(format!("duplicate retired id {id}")));
            }
            retired.push((id, st));
        }
        let mut slots = Vec::with_capacity(num_shards);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..num_shards {
            let nslots = dec.get_count(4)?;
            let mut defs = Vec::with_capacity(nslots);
            for _ in 0..nslots {
                let id = dec.get_u32()?;
                if !seen.insert(id) {
                    return Err(CodecError::Invalid(format!("duplicate query id {id}")));
                }
                let text = dec.get_str()?;
                let q = parse_query_graph(text)
                    .map_err(|e| CodecError::Invalid(format!("query {id}: {e}")))?;
                let mut sec = dec.section()?;
                let cfg = EngineConfig::decode(&mut sec)?;
                sec.finish()?;
                defs.push(SlotDef { id, q, cfg });
            }
            slots.push(defs);
        }
        dec.finish()?;
        Ok(Manifest {
            fingerprint,
            delta,
            cursor,
            cfg,
            next_id,
            stats,
            retired,
            slots,
        })
    };
    inner(&mut dec).map_err(&err)
}

impl<'g> MatchService<'g> {
    /// Writes an atomic checkpoint of the whole service into `dir` (created
    /// if missing): one frame per shard, then the manifest, each written
    /// temp-then-rename so no torn file is ever visible under a final name.
    /// Restoring the checkpoint with [`MatchService::restore`] resumes the
    /// exact match-stream suffix an uninterrupted run would emit.
    ///
    /// May be called between any two [`MatchService::step`] calls; a later
    /// checkpoint into the same directory atomically supersedes file by
    /// file, manifest last.
    ///
    /// Takes `&mut self` only to record the wall-clock cost as a
    /// [`Phase::Checkpoint`](tcsm_telemetry::Phase) span on the service's
    /// phase recorder; no matching state is touched, and the written
    /// bytes are identical at every `TCSM_TRACE` level (timing is never
    /// serialized).
    pub fn checkpoint(&mut self, dir: &Path) -> Result<(), SnapshotError> {
        let t = self.recorder.start();
        let result = self.checkpoint_inner(dir);
        self.recorder.stop(tcsm_telemetry::Phase::Checkpoint, t);
        result
    }

    fn checkpoint_inner(&self, dir: &Path) -> Result<(), SnapshotError> {
        fs::create_dir_all(dir).map_err(|source| SnapshotError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let fp = stream_fingerprint(self.full, self.queue.delta());
        for (si, shard) in self.shards.iter().enumerate() {
            let frame = encode_frame(KIND_SHARD, |e| {
                e.put_u64(fp);
                e.put_usize(self.next_event);
                e.put_usize(si);
                e.section(|e| shard.window.encode(e));
                e.put_usize(shard.slots.len());
                for slot in &shard.slots {
                    e.put_u32(slot.id);
                    e.section(|e| slot.rt.encode_state(e));
                }
            });
            write_atomic(&dir.join(shard_file(si)), &frame)?;
        }
        let frame = encode_frame(KIND_MANIFEST, |e| {
            e.put_u64(fp);
            e.put_i64(self.queue.delta());
            e.put_usize(self.next_event);
            e.put_usize(self.shards.len());
            e.put_u8(match self.cfg.policy {
                ShardPolicy::LabelLocality => 0,
                ShardPolicy::Spread => 1,
            });
            e.put_usize(self.cfg.threads);
            e.put_bool(self.cfg.batching);
            e.put_bool(self.cfg.directed);
            e.put_u32(self.next_id);
            e.put_u64(self.stats.windows_allocated);
            e.put_u64(self.stats.admitted);
            e.put_u64(self.stats.retired);
            e.put_u64(self.stats.disconnected);
            e.put_u64(self.stats.events);
            e.put_u64(self.stats.batches);
            // Retired-side accumulators: the kernel counters folded in by
            // `remove_query` (resident contributions are re-derived from
            // the restored runtimes at `stats()` time) and the eviction
            // count of the bounded retired-stats table.
            e.put_u64(self.stats.kernel_invocations);
            e.put_u64(self.stats.kernel_lanes);
            e.put_u64(self.stats.kernel_early_exits);
            e.put_u64(self.stats.retired_stats_evictions);
            // Retirement order (skipping taken-out ids), so the restored
            // service evicts oldest-first exactly like this one would.
            let retired: Vec<(u32, &EngineStats)> = self
                .retired_order
                .iter()
                .filter_map(|id| self.retired.get(id).map(|st| (*id, st)))
                .collect();
            e.put_usize(retired.len());
            for (id, st) in retired {
                e.put_u32(id);
                e.section(|e| st.encode(e));
            }
            for shard in &self.shards {
                e.put_usize(shard.slots.len());
                for slot in &shard.slots {
                    e.put_u32(slot.id);
                    e.put_str(&write_query_graph(slot.rt.query()));
                    e.section(|e| slot.rt.config().encode(e));
                }
            }
        });
        write_atomic(&dir.join(MANIFEST_FILE), &frame)
    }

    /// Restores a service from a checkpoint directory against the same
    /// stream `g` the checkpointed service ran on (verified by a stream
    /// fingerprint stamped into every frame). Every resident query gets a
    /// fresh sink from `make_sink`; from the first [`MatchService::step`]
    /// on, deliveries are byte-identical to the suffix the uninterrupted
    /// run would have delivered from the checkpoint cursor.
    ///
    /// Manifest corruption is a typed error under both policies; shard
    /// corruption errors under [`RecoveryPolicy::Strict`] and is replayed
    /// from the stream prefix under [`RecoveryPolicy::Rebuild`].
    pub fn restore(
        g: &'g TemporalGraph,
        dir: &Path,
        policy: RecoveryPolicy,
        mut make_sink: impl FnMut(QueryId) -> Box<dyn ResultSink>,
    ) -> Result<MatchService<'g>, SnapshotError> {
        // Time the whole restore (decode, rebuild, replay) as one
        // `Phase::Restore` span on a recorder created up front; it
        // replaces the recorder `MatchService::new` seeds below, so the
        // span survives into the returned service.
        let mut recorder = tcsm_telemetry::PhaseRecorder::from_env();
        let t = recorder.start();
        let m = decode_manifest(&read_file(dir, MANIFEST_FILE)?)?;
        if m.fingerprint != stream_fingerprint(g, m.delta) {
            return Err(SnapshotError::Mismatch(
                "checkpoint was taken against a different stream or window length".into(),
            ));
        }
        let mut svc = MatchService::new(g, m.delta, m.cfg)?;
        if m.cursor > svc.queue.len() {
            return Err(SnapshotError::Mismatch(format!(
                "cursor {} beyond the stream's {} events",
                m.cursor,
                svc.queue.len()
            )));
        }
        svc.next_event = m.cursor;
        svc.next_id = m.next_id;
        svc.retired_order = m.retired.iter().map(|&(id, _)| id).collect();
        svc.retired = m.retired.into_iter().collect();
        svc.stats = ServiceStats {
            // `build` allocated this run's shard windows; the manifest's
            // figure described the checkpointed run's own allocations.
            windows_allocated: svc.stats.windows_allocated,
            ..m.stats
        };
        for (si, defs) in m.slots.into_iter().enumerate() {
            for def in defs {
                let sink = make_sink(QueryId(def.id));
                let cfg = EngineConfig {
                    collect_matches: sink.collect_matches(),
                    batching: svc.cfg.batching,
                    directed: svc.cfg.directed,
                    threads: 0,
                    ..def.cfg
                };
                let shard = &mut svc.shards[si];
                let rt = QueryRuntime::new(&def.q, &shard.window, m.delta, cfg, None);
                for l in (0..def.q.num_vertices()).map(|u| def.q.label(u)) {
                    *shard.label_counts.entry(l).or_insert(0) += 1;
                }
                svc.index.insert(def.id, (si, shard.slots.len()));
                shard.slots.push(Slot {
                    id: def.id,
                    rt,
                    sink,
                    out: Vec::new(),
                    active: false,
                    dead: false,
                    delivered_occurred: 0,
                    delivered_expired: 0,
                });
            }
        }
        for si in 0..svc.shards.len() {
            let loaded = read_file(dir, &shard_file(si))
                .and_then(|bytes| svc.load_shard(si, &bytes, m.fingerprint, m.cursor));
            match (loaded, policy) {
                (Ok(()), _) => {}
                (Err(e), RecoveryPolicy::Strict) => return Err(e),
                (Err(_), RecoveryPolicy::Rebuild) => svc.rebuild_shard(si),
            }
        }
        recorder.stop(tcsm_telemetry::Phase::Restore, t);
        svc.recorder = recorder;
        Ok(svc)
    }

    /// Overlays one shard frame onto shard `si` (fresh window, fresh
    /// runtimes). Any failure leaves the shard partially written — callers
    /// either abort the whole restore (strict) or rebuild the shard from
    /// the stream, which replaces everything this touched.
    fn load_shard(
        &mut self,
        si: usize,
        bytes: &[u8],
        fingerprint: u64,
        cursor: usize,
    ) -> Result<(), SnapshotError> {
        let file = shard_file(si);
        let err = codec_err(&file);
        let mut dec = open_frame(bytes, KIND_SHARD).map_err(&err)?;
        let inner = |dec: &mut Decoder<'_>, shard: &mut Shard| -> Result<(), CodecError> {
            let fp = dec.get_u64()?;
            let cur = dec.get_usize()?;
            if fp != fingerprint || cur != cursor {
                return Err(CodecError::Invalid(
                    "shard frame from a different checkpoint generation".into(),
                ));
            }
            let idx = dec.get_usize()?;
            if idx != si {
                return Err(CodecError::Invalid(format!(
                    "shard frame {idx} stored under index {si}"
                )));
            }
            let mut sec = dec.section()?;
            shard.window.restore(&mut sec)?;
            sec.finish()?;
            let nslots = dec.get_usize()?;
            if nslots != shard.slots.len() {
                return Err(CodecError::Invalid(format!(
                    "{nslots} slot states for {} manifest slots",
                    shard.slots.len()
                )));
            }
            for slot in &mut shard.slots {
                let id = dec.get_u32()?;
                if id != slot.id {
                    return Err(CodecError::Invalid(format!(
                        "slot state for q{id} where manifest lists q{}",
                        slot.id
                    )));
                }
                let mut sec = dec.section()?;
                slot.rt.restore_state(&mut sec, &shard.window)?;
                sec.finish()?;
                // At a step boundary everything reported has been
                // delivered, so the delivery watermarks equal the totals.
                slot.delivered_occurred = slot.rt.stats().occurred;
                slot.delivered_expired = slot.rt.stats().expired;
            }
            dec.finish()
        };
        inner(&mut dec, &mut self.shards[si]).map_err(&err)
    }

    /// [`RecoveryPolicy::Rebuild`] fallback for one shard: a fresh window
    /// replayed over the stream prefix, then every resident runtime
    /// re-derived via [`QueryRuntime::sync_to_window`] (the mid-stream
    /// admission path). Per-query stats restart from zero; the match
    /// stream does not — deliveries are per-delta count deltas and the
    /// rebuilt structures are byte-for-byte what incremental maintenance
    /// would hold.
    fn rebuild_shard(&mut self, si: usize) {
        let full = self.full;
        let delta = self.queue.delta();
        let mut window = MatchService::alloc_window(&mut self.stats, full, self.cfg.directed);
        // Serial replay regardless of the batching regime: only the window
        // *content* matters here (sync_to_window re-derives all
        // pair-indexed state from the replayed window's own bucket ids).
        for ev in &self.queue.events()[..self.next_event] {
            let e = full.edge(ev.edge);
            match ev.kind {
                EventKind::Insert => window.insert(e),
                EventKind::Delete => window.remove(e),
            }
        }
        let shard = &mut self.shards[si];
        shard.window = window;
        let Shard { window, slots, .. } = shard;
        for slot in slots.iter_mut() {
            let mut rt = QueryRuntime::new(slot.rt.query(), window, delta, *slot.rt.config(), None);
            if window.num_alive_edges() > 0 {
                rt.sync_to_window(window, |k| full.edge(k));
            }
            slot.rt = rt;
            slot.out.clear();
            slot.active = false;
            slot.delivered_occurred = 0;
            slot.delivered_expired = 0;
        }
    }
}
