//! [`MatchService`]: shards, query slots, and the per-delta drive loop.

mod snapshot;

pub use snapshot::{RecoveryPolicy, SnapshotError};

use crate::sink::ResultSink;
use std::collections::VecDeque;
use std::sync::Arc;
use tcsm_core::{EngineConfig, EngineStats, MatchEvent, QueryRuntime, WorkerPool};
use tcsm_graph::{
    EventKind, EventQueue, FxHashMap, GraphError, Label, QueryGraph, TemporalEdge, TemporalGraph,
    WindowGraph,
};
use tcsm_telemetry::{Clock, LatencyHistogram, MetricsWriter, Phase, PhaseRecorder, TraceLevel};

/// Handle of one standing query, valid for the service's lifetime (also
/// after retirement, for [`MatchService::query_stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u32);

impl QueryId {
    /// The raw wire representation. Round-trips through
    /// [`QueryId::from_raw`] — the escape hatch a network frontend needs to
    /// put query handles on the wire.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// A handle from its wire representation. A forged or stale id is
    /// harmless: every service API treats an unknown id as `None`.
    #[inline]
    pub fn from_raw(raw: u32) -> QueryId {
        QueryId(raw)
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// How new queries are placed onto shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Most shared distinct vertex labels wins (ties: fewest resident
    /// queries, then lowest shard index) — co-locate queries that read the
    /// same window regions. The default.
    #[default]
    LabelLocality,
    /// Fewest resident queries wins (ties: lowest shard index) — with as
    /// many shards as queries this reproduces the one-window-per-query
    /// layout of the pre-service `run_queries_on`.
    Spread,
}

/// Service-wide configuration. Stream regime (`batching`), thread
/// placement (`threads`), and direction semantics (`directed`) are window
/// properties and therefore service-owned; the same-named fields of a
/// query's [`EngineConfig`] are overridden at admission (see the crate
/// docs' aliasing rules).
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Number of shards (≥ 1; clamped). One [`WindowGraph`] is allocated
    /// per shard, ever — [`ServiceStats::windows_allocated`] asserts it.
    pub shards: usize,
    /// Shard placement policy for [`MatchService::add_query`].
    pub policy: ShardPolicy,
    /// Width of the shard fan-out pool (0 = serial: every shard is driven
    /// on the caller). Query runtimes inside shards always run serially —
    /// shard-level and intra-query parallelism are alternatives over one
    /// pool, and the service owns the shard level.
    pub threads: usize,
    /// Process the stream in same-`(timestamp, kind)` delta batches (the
    /// batched engine regime) instead of one event at a time. Applies to
    /// every resident query.
    pub batching: bool,
    /// Direction semantics of every shard window (and hence every query).
    pub directed: bool,
}

impl Default for ServiceConfig {
    /// One shard, label-locality placement, serial shard drive (seeded by
    /// `TCSM_THREADS` like [`EngineConfig::default`]), per-event regime,
    /// undirected.
    fn default() -> ServiceConfig {
        let engine = EngineConfig::default();
        ServiceConfig {
            shards: 1,
            policy: ShardPolicy::LabelLocality,
            threads: engine.threads,
            batching: engine.batching,
            directed: engine.directed,
        }
    }
}

/// Aggregate service counters (per-query counters live in each query's
/// [`EngineStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Number of shards.
    pub shards: usize,
    /// Live [`WindowGraph`]s ever allocated — the shared-window guarantee:
    /// always exactly one per shard, never one per query.
    pub windows_allocated: u64,
    /// Queries currently resident.
    pub resident_queries: usize,
    /// Queries ever admitted.
    pub admitted: u64,
    /// Queries retired via [`MatchService::remove_query`].
    pub retired: u64,
    /// Queries auto-retired because their sink reported
    /// [`SinkClosed`](crate::SinkClosed) (also counted in `retired`).
    pub disconnected: u64,
    /// Stream events processed (arrivals + expirations).
    pub events: u64,
    /// Delta batches processed (0 in the per-event regime).
    pub batches: u64,
    /// Eq. (1) kernel invocations summed over all resident queries'
    /// filter instances **plus** every retired query's final count (see
    /// `EngineStats::kernel_invocations`) — retirement folds a query's
    /// kernel counters into the service totals instead of dropping them.
    pub kernel_invocations: u64,
    /// `TR(u)` lanes folded across those invocations (resident +
    /// retired, like `kernel_invocations`).
    pub kernel_lanes: u64,
    /// Eq. (1) early-exit bails (child term with no contributing
    /// neighbour), resident + retired.
    pub kernel_early_exits: u64,
    /// Retired-stats records evicted from the bounded table (capacity
    /// [`RETIRED_STATS_CAPACITY`]) to make room for newer retirements.
    /// A non-zero value tells an operator that per-query post-mortem
    /// stats are being lost and sinks should take them at retirement.
    pub retired_stats_evictions: u64,
}

/// One resident query: its runtime, sink, and per-delta delivery state.
struct Slot {
    id: u32,
    rt: QueryRuntime,
    sink: Box<dyn ResultSink>,
    /// Per-delta event buffer (reused allocation).
    out: Vec<MatchEvent>,
    /// Was the query live (budget not exhausted) when the current delta
    /// opened? Snapshot so a budget exhausting mid-delta still completes
    /// the delta, exactly like the standalone engine.
    active: bool,
    /// The sink reported [`SinkClosed`](crate::SinkClosed); the service
    /// auto-retires the slot after the current delta.
    dead: bool,
    /// Occurred/expired totals already delivered, for per-delta counts.
    delivered_occurred: u64,
    delivered_expired: u64,
}

/// One shard: the shared window plus its resident queries.
struct Shard {
    window: WindowGraph,
    slots: Vec<Slot>,
    /// Distinct-label census of resident queries (placement scoring).
    label_counts: FxHashMap<Label, usize>,
}

impl Shard {
    /// Applies one stream delta: mutate the shared window once, drive every
    /// live resident runtime over it, deliver. `edges` is the complete
    /// delta in key order (a single event in the per-event regime).
    fn apply_unit(
        &mut self,
        full: &TemporalGraph,
        kind: EventKind,
        edges: &[TemporalEdge],
        batching: bool,
    ) {
        for slot in &mut self.slots {
            slot.active = !slot.rt.done();
        }
        match (kind, batching) {
            (EventKind::Insert, false) => {
                for e in edges {
                    self.window.insert(e);
                    for slot in self.slots.iter_mut().filter(|s| s.active) {
                        slot.rt
                            .apply_insert(&self.window, e, |k| full.edge(k), &mut slot.out);
                    }
                }
            }
            (EventKind::Insert, true) => {
                self.window.begin_batch();
                for e in edges {
                    self.window.insert_deferred(e);
                }
                for slot in self.slots.iter_mut().filter(|s| s.active) {
                    slot.rt.apply_insert_batch(
                        &self.window,
                        edges,
                        |k| full.edge(k),
                        &mut slot.out,
                    );
                }
            }
            (EventKind::Delete, false) => {
                for e in edges {
                    // Every runtime enumerates its expiring embeddings
                    // while the window still holds the edge; then one
                    // removal; then every structure update (ids stay
                    // resolvable until the next mutation).
                    for slot in self.slots.iter_mut().filter(|s| s.active) {
                        slot.rt.sweep_expiring(&self.window, e, &mut slot.out);
                    }
                    self.window.remove(e);
                    for slot in self.slots.iter_mut().filter(|s| s.active) {
                        slot.rt.apply_delete(&self.window, e, |k| full.edge(k));
                    }
                }
            }
            (EventKind::Delete, true) => {
                for slot in self.slots.iter_mut().filter(|s| s.active) {
                    slot.rt
                        .sweep_expiring_batch(&self.window, edges, &mut slot.out);
                }
                self.window.begin_batch();
                for e in edges {
                    self.window.remove_deferred(e);
                }
                for slot in self.slots.iter_mut().filter(|s| s.active) {
                    slot.rt
                        .apply_delete_batch(&self.window, edges, |k| full.edge(k));
                }
            }
        }
        for slot in self.slots.iter_mut().filter(|s| s.active) {
            let stats = slot.rt.stats();
            let occ = stats.occurred - slot.delivered_occurred;
            let exp = stats.expired - slot.delivered_expired;
            if occ > 0 || exp > 0 || !slot.out.is_empty() {
                slot.delivered_occurred = stats.occurred;
                slot.delivered_expired = stats.expired;
                if !slot.dead
                    && slot
                        .sink
                        .deliver(QueryId(slot.id), &mut slot.out, occ, exp)
                        .is_err()
                {
                    // Dead peer: stop delivering and let the post-delta
                    // sweep retire the slot. Survivors are untouched.
                    slot.dead = true;
                }
                slot.out.clear();
            }
        }
    }

    /// Distinct-label overlap between `labels` (sorted, deduped) and the
    /// resident queries.
    fn label_overlap(&self, labels: &[Label]) -> usize {
        labels
            .iter()
            .filter(|l| self.label_counts.contains_key(l))
            .count()
    }
}

/// Retired-stats table bound: the final [`EngineStats`] of at most this
/// many retired queries are kept (oldest retirement evicted first). A
/// standing daemon admits and retires queries indefinitely; an unbounded
/// table is a per-retirement leak. Consumers that must not lose stats take
/// them at retirement ([`MatchService::remove_query`] returns them) or via
/// [`MatchService::take_retired_stats`].
pub const RETIRED_STATS_CAPACITY: usize = 1024;

/// The sharded multi-query matching service (see the crate docs).
pub struct MatchService<'g> {
    full: &'g TemporalGraph,
    queue: EventQueue,
    next_event: usize,
    cfg: ServiceConfig,
    pool: Option<Arc<WorkerPool>>,
    shards: Vec<Shard>,
    /// Resident `QueryId` → (shard, slot) positions.
    index: FxHashMap<u32, (usize, usize)>,
    /// Final stats of retired queries, bounded by
    /// [`RETIRED_STATS_CAPACITY`].
    retired: FxHashMap<u32, EngineStats>,
    /// Retirement order of the ids in `retired` (front = oldest, evicted
    /// first). May carry ids already taken out of the map; eviction and
    /// compaction skip those.
    retired_order: VecDeque<u32>,
    /// Queries auto-retired by the disconnect sweep since the last
    /// [`MatchService::drain_disconnected`].
    disconnected: Vec<QueryId>,
    next_id: u32,
    stats: ServiceStats,
    /// Materialized edges of the current delta (reused allocation).
    unit_scratch: Vec<TemporalEdge>,
    /// Step-path invariant audit cadence (`TCSM_AUDIT` ×
    /// `TCSM_AUDIT_EVERY`), shared by every resident runtime. The serviced
    /// network daemon drives [`MatchService::step`], so it inherits this
    /// tripwire too.
    auditor: tcsm_core::Auditor,
    /// Service-level phase timing (`TCSM_TRACE`): queue pop, shard-pool
    /// dispatch, checkpoint, restore. Per-query phases live on each
    /// slot's runtime recorder; [`MatchService::metrics_text`] rolls both
    /// up. Never serialized — snapshots are byte-identical at every trace
    /// level.
    recorder: PhaseRecorder,
}

impl<'g> MatchService<'g> {
    /// Builds a service over the stream of `g` with window length `delta`.
    /// With [`ServiceConfig::threads`]` > 0` the service owns a private
    /// [`WorkerPool`] of that width for the shard fan-out.
    pub fn new(
        g: &'g TemporalGraph,
        delta: i64,
        cfg: ServiceConfig,
    ) -> Result<MatchService<'g>, GraphError> {
        let pool = match cfg.threads {
            0 => None,
            n => Some(Arc::new(WorkerPool::new(n))),
        };
        MatchService::build(g, delta, cfg, pool)
    }

    /// [`MatchService::new`] on an existing pool (shared with other
    /// sweeps; must only be driven from this service's thread while a
    /// step runs). [`ServiceConfig::threads`] is ignored for pool sizing.
    pub fn with_pool(
        g: &'g TemporalGraph,
        delta: i64,
        cfg: ServiceConfig,
        pool: Arc<WorkerPool>,
    ) -> Result<MatchService<'g>, GraphError> {
        MatchService::build(g, delta, cfg, Some(pool))
    }

    /// The only way this crate constructs a [`WindowGraph`] — every
    /// allocation bumps [`ServiceStats::windows_allocated`], which is what
    /// makes the one-window-per-shard assertions in the differential suite
    /// meaningful. Do not call `WindowGraph::new` anywhere else in
    /// `tcsm-service`.
    fn alloc_window(stats: &mut ServiceStats, g: &TemporalGraph, directed: bool) -> WindowGraph {
        stats.windows_allocated += 1;
        WindowGraph::new(g.labels().to_vec(), directed)
    }

    fn build(
        g: &'g TemporalGraph,
        delta: i64,
        cfg: ServiceConfig,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<MatchService<'g>, GraphError> {
        let queue = EventQueue::new(g, delta)?;
        let num_shards = cfg.shards.max(1);
        let mut stats = ServiceStats {
            shards: num_shards,
            ..ServiceStats::default()
        };
        let shards: Vec<Shard> = (0..num_shards)
            .map(|_| Shard {
                // The one window of this shard.
                window: MatchService::alloc_window(&mut stats, g, cfg.directed),
                slots: Vec::new(),
                label_counts: FxHashMap::default(),
            })
            .collect();
        Ok(MatchService {
            full: g,
            queue,
            next_event: 0,
            cfg,
            pool,
            shards,
            index: FxHashMap::default(),
            retired: FxHashMap::default(),
            retired_order: VecDeque::new(),
            disconnected: Vec::new(),
            next_id: 0,
            stats,
            unit_scratch: Vec::new(),
            auditor: tcsm_core::Auditor::from_env(),
            recorder: PhaseRecorder::from_env(),
        })
    }

    /// The window length δ.
    #[inline]
    pub fn delta(&self) -> i64 {
        self.queue.delta()
    }

    /// Stream events processed so far (the admission point of a query
    /// added now).
    #[inline]
    pub fn events_processed(&self) -> usize {
        self.next_event
    }

    /// Remaining events in the stream.
    #[inline]
    pub fn remaining_events(&self) -> usize {
        self.queue.len() - self.next_event
    }

    /// Aggregate service counters (resident count and the kernel
    /// instrumentation aggregates refreshed here — the latter sum the
    /// *resident* queries' filter instances on top of the retired-side
    /// accumulators folded in by [`MatchService::remove_query`], so a
    /// query's kernel work is never lost to retirement).
    pub fn stats(&self) -> ServiceStats {
        let mut ki = 0u64;
        let mut kl = 0u64;
        let mut kx = 0u64;
        for shard in &self.shards {
            for slot in &shard.slots {
                let s = slot.rt.stats();
                ki += s.kernel_invocations;
                kl += s.kernel_lanes;
                kx += s.kernel_early_exits;
            }
        }
        ServiceStats {
            resident_queries: self.index.len(),
            kernel_invocations: self.stats.kernel_invocations + ki,
            kernel_lanes: self.stats.kernel_lanes + kl,
            kernel_early_exits: self.stats.kernel_early_exits + kx,
            ..self.stats
        }
    }

    /// The shard a resident query lives on.
    pub fn shard_of(&self, id: QueryId) -> Option<usize> {
        self.index.get(&id.0).map(|&(shard, _)| shard)
    }

    /// A resident or retired query's counters.
    pub fn query_stats(&self, id: QueryId) -> Option<&EngineStats> {
        match self.index.get(&id.0) {
            Some(&(shard, slot)) => Some(self.shards[shard].slots[slot].rt.stats()),
            None => self.retired.get(&id.0),
        }
    }

    /// Shard placement for a query's label set (see [`ShardPolicy`]).
    fn pick_shard(&self, q: &QueryGraph) -> usize {
        let mut labels: Vec<Label> = (0..q.num_vertices()).map(|u| q.label(u)).collect();
        labels.sort_unstable();
        labels.dedup();
        (0..self.shards.len())
            .max_by_key(|&i| {
                let s = &self.shards[i];
                let overlap = match self.cfg.policy {
                    ShardPolicy::LabelLocality => s.label_overlap(&labels),
                    ShardPolicy::Spread => 0,
                };
                (
                    overlap,
                    std::cmp::Reverse(s.slots.len()),
                    std::cmp::Reverse(i),
                )
            })
            .expect("service always has ≥ 1 shard")
    }

    /// Admits a standing query, mid-stream or before the first event. The
    /// query is placed by [`ServiceConfig::policy`], synchronized to its
    /// shard's live window (one from-scratch rebuild when the window is
    /// non-empty), and from the next [`MatchService::step`] on reports
    /// exactly the stream a standalone engine would from this point (the
    /// differential suite pins this). `collect_matches`, `batching`,
    /// `threads`, and `directed` of `cfg` are service-owned and overridden
    /// (see the crate docs).
    pub fn add_query(
        &mut self,
        q: &QueryGraph,
        cfg: EngineConfig,
        sink: Box<dyn ResultSink>,
    ) -> QueryId {
        let cfg = EngineConfig {
            collect_matches: sink.collect_matches(),
            batching: self.cfg.batching,
            directed: self.cfg.directed,
            // Runtimes never own intra-query pools inside the service; the
            // shard fan-out owns the thread budget.
            threads: 0,
            ..cfg
        };
        let shard_idx = self.pick_shard(q);
        let id = self.alloc_query_id();
        let shard = &mut self.shards[shard_idx];
        let mut rt = QueryRuntime::new(q, &shard.window, self.queue.delta(), cfg, None);
        if shard.window.num_alive_edges() > 0 {
            let full = self.full;
            rt.sync_to_window(&shard.window, |k| full.edge(k));
        }
        self.stats.admitted += 1;
        for l in (0..q.num_vertices()).map(|u| q.label(u)) {
            *shard.label_counts.entry(l).or_insert(0) += 1;
        }
        self.index.insert(id, (shard_idx, shard.slots.len()));
        shard.slots.push(Slot {
            id,
            rt,
            sink,
            out: Vec::new(),
            active: false,
            dead: false,
            delivered_occurred: 0,
            delivered_expired: 0,
        });
        QueryId(id)
    }

    /// The next free query id. `next_id` is a u32 that a daemon admitting
    /// and retiring queries for long enough will wrap; a wrapped candidate
    /// must never alias a key still referenced by the resident index or the
    /// retired-stats table, so candidates are probed against both. The
    /// probe terminates: `retired` is bounded by [`RETIRED_STATS_CAPACITY`]
    /// and the resident count is nowhere near 2³².
    fn alloc_query_id(&mut self) -> u32 {
        debug_assert!(
            (self.index.len() as u64) + (self.retired.len() as u64) < u32::MAX as u64,
            "query id space exhausted"
        );
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            if !self.index.contains_key(&id) && !self.retired.contains_key(&id) {
                return id;
            }
        }
    }

    /// Replaces a resident query's sink (and clears any pending disconnect
    /// mark), leaving runtime state untouched — how a daemon re-attaches a
    /// subscriber to a query restored from a checkpoint. The new sink's
    /// [`ResultSink::collect_matches`] is **not** consulted: whether the
    /// runtime materializes embeddings was fixed at admission (or restore).
    /// Returns `false` for unknown/retired ids.
    pub fn set_sink(&mut self, id: QueryId, sink: Box<dyn ResultSink>) -> bool {
        match self.index.get(&id.0) {
            Some(&(shard, slot)) => {
                let s = &mut self.shards[shard].slots[slot];
                s.sink = sink;
                s.dead = false;
                true
            }
            None => false,
        }
    }

    /// Retires a standing query (mid-stream or after), returning its final
    /// counters. Other queries' streams are untouched — the shard's window
    /// keeps running either way. Returns `None` for unknown/already
    /// retired ids.
    pub fn remove_query(&mut self, id: QueryId) -> Option<EngineStats> {
        let (shard_idx, slot_idx) = self.index.remove(&id.0)?;
        let shard = &mut self.shards[shard_idx];
        let slot = shard.slots.swap_remove(slot_idx);
        // The swap moved the former tail (if any) into `slot_idx`.
        if let Some(moved) = shard.slots.get(slot_idx) {
            self.index.insert(moved.id, (shard_idx, slot_idx));
        }
        for l in (0..slot.rt.query().num_vertices()).map(|u| slot.rt.query().label(u)) {
            if let Some(c) = shard.label_counts.get_mut(&l) {
                *c -= 1;
                if *c == 0 {
                    shard.label_counts.remove(&l);
                }
            }
        }
        let stats = *slot.rt.stats();
        // Fold the retiring query's kernel counters into the service
        // accumulators — `stats()` adds resident runtimes on top, so the
        // aggregate keeps counting work done by queries that are gone.
        self.stats.kernel_invocations += stats.kernel_invocations;
        self.stats.kernel_lanes += stats.kernel_lanes;
        self.stats.kernel_early_exits += stats.kernel_early_exits;
        self.note_retired(id.0, stats);
        self.stats.retired += 1;
        Some(stats)
    }

    /// Records a retired query's final stats, evicting the oldest
    /// retirement once [`RETIRED_STATS_CAPACITY`] is reached — the table
    /// must not grow forever in a daemon that retires queries for days.
    fn note_retired(&mut self, id: u32, stats: EngineStats) {
        while self.retired.len() >= RETIRED_STATS_CAPACITY {
            match self.retired_order.pop_front() {
                // Skip ids already taken out via `take_retired_stats`.
                Some(old) if self.retired.remove(&old).is_some() => {
                    self.stats.retired_stats_evictions += 1;
                    break;
                }
                Some(_) => continue,
                None => break,
            }
        }
        // `take_retired_stats` leaves stale ids in the order queue; compact
        // once they dominate so the queue stays O(capacity).
        if self.retired_order.len() >= 2 * RETIRED_STATS_CAPACITY {
            let retired = &self.retired;
            self.retired_order.retain(|i| retired.contains_key(i));
        }
        self.retired.insert(id, stats);
        self.retired_order.push_back(id);
    }

    /// Takes a retired query's final counters **out** of the bounded
    /// retired-stats table (they were also returned by
    /// [`MatchService::remove_query`] at retirement). Returns `None` for
    /// unknown, still-resident, or already-taken ids. Long-running
    /// frontends should prefer this over [`MatchService::query_stats`]
    /// peeks so the table stays empty instead of riding its eviction bound.
    pub fn take_retired_stats(&mut self, id: QueryId) -> Option<EngineStats> {
        self.retired.remove(&id.0)
    }

    /// Queries auto-retired by the disconnect sweep (their sink returned
    /// [`SinkClosed`](crate::SinkClosed)) since the last drain, in
    /// retirement order. Final stats are in the retired table until taken.
    pub fn drain_disconnected(&mut self) -> Vec<QueryId> {
        std::mem::take(&mut self.disconnected)
    }

    /// Retires a query because its consumer is gone (a read-side EOF a
    /// frontend noticed, or the sweep below): [`MatchService::remove_query`]
    /// plus the disconnect accounting. Returns the final stats like any
    /// retirement.
    pub fn retire_disconnected(&mut self, id: QueryId) -> Option<EngineStats> {
        let stats = self.remove_query(id)?;
        self.stats.disconnected += 1;
        self.disconnected.push(id);
        Some(stats)
    }

    /// Post-delta sweep: auto-retire every slot whose sink reported
    /// [`SinkClosed`](crate::SinkClosed) during the delta. Runs on the
    /// service thread after the shard fan-out, so survivors' streams are
    /// never perturbed mid-delta.
    fn sweep_disconnected(&mut self) {
        let mut dead: Vec<u32> = Vec::new();
        for shard in &self.shards {
            for slot in &shard.slots {
                if slot.dead {
                    dead.push(slot.id);
                }
            }
        }
        for id in dead {
            self.retire_disconnected(QueryId(id));
        }
    }

    /// Processes one stream delta — a single event in the per-event
    /// regime, a whole same-`(timestamp, kind)` batch with
    /// [`ServiceConfig::batching`] — across every shard. Returns `false`
    /// when the stream is exhausted. Shards with no resident queries still
    /// advance their windows, so later admissions stay cheap and exact.
    pub fn step(&mut self) -> bool {
        let t_pop = self.recorder.start();
        let (kind, n) = if self.cfg.batching {
            match self.queue.batch_at(self.next_event) {
                Some(b) => (b.kind, b.len()),
                None => return false,
            }
        } else {
            match self.queue.events().get(self.next_event) {
                Some(ev) => (ev.kind, 1),
                None => return false,
            }
        };
        let full = self.full;
        let mut edges = std::mem::take(&mut self.unit_scratch);
        edges.clear();
        edges.extend(
            self.queue.events()[self.next_event..self.next_event + n]
                .iter()
                .map(|ev| *full.edge(ev.edge)),
        );
        self.next_event += n;
        self.stats.events += n as u64;
        if self.cfg.batching {
            self.stats.batches += 1;
        }
        self.recorder.stop(Phase::QueuePop, t_pop);
        let batching = self.cfg.batching;
        match &self.pool {
            Some(pool) if self.shards.len() > 1 => {
                let edges = &edges[..];
                let t = self.recorder.start();
                pool.for_each_mut(&mut self.shards, |_i, shard| {
                    shard.apply_unit(full, kind, edges, batching);
                });
                self.recorder.stop(Phase::PoolDispatch, t);
            }
            _ => {
                for shard in &mut self.shards {
                    shard.apply_unit(full, kind, &edges, batching);
                }
            }
        }
        self.unit_scratch = edges;
        self.sweep_disconnected();
        if self.auditor.due(n as u64) {
            let out = self.audit_now(self.auditor.level());
            tcsm_core::audit::expect_clean("MatchService step audit", &out);
        }
        true
    }

    /// Drains the rest of the stream.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs the cross-crate invariant audit over every resident runtime at
    /// `level`, tagging each violation with the owning query id.
    pub fn audit_now(&self, level: tcsm_core::AuditLevel) -> Vec<tcsm_core::AuditViolation> {
        let full = self.full;
        let mut out = Vec::new();
        for shard in &self.shards {
            for slot in &shard.slots {
                if !slot.rt.done() {
                    let mut vs = slot.rt.audit(&shard.window, |k| full.edge(k), level);
                    for v in &mut vs {
                        *v = tcsm_core::AuditViolation::new(
                            v.name(),
                            format!("query {}: {}", slot.id, v.detail()),
                        );
                    }
                    out.append(&mut vs);
                }
            }
        }
        out
    }

    /// The service-level phase recorder (queue pop, pool dispatch,
    /// checkpoint, restore). Per-query phases are on each runtime's own
    /// recorder; [`MatchService::metrics_text`] rolls both up.
    pub fn telemetry(&self) -> &PhaseRecorder {
        &self.recorder
    }

    /// Replaces the env-seeded trace configuration of the service *and*
    /// every resident runtime with `level` on `clock` (test/bench hook —
    /// inject a [`tcsm_telemetry::ManualClock`] for deterministic phase
    /// timings). Queries admitted afterwards still seed from the
    /// environment.
    #[doc(hidden)]
    pub fn set_trace(&mut self, level: TraceLevel, clock: Arc<dyn Clock>) {
        self.recorder = PhaseRecorder::with_clock(level, Arc::clone(&clock));
        for shard in &mut self.shards {
            for slot in &mut shard.slots {
                slot.rt.set_trace(level, Arc::clone(&clock));
            }
        }
    }

    /// Renders the service counters and every per-phase latency histogram
    /// as Prometheus-style text exposition (grammar: `tcsm_telemetry`
    /// crate docs). Histogram families are labelled by `scope` —
    /// `service` (the service-level recorder), `shard<i>` (merged over
    /// shard `i`'s resident queries), `q<id>` (one resident query) — and
    /// `phase`. Retired queries' phase timings are dropped with their
    /// runtimes; their kernel counters survive in the service counters.
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let mut w = MetricsWriter::new();
        for (name, kind, value) in [
            ("tcsm_service_shards", "gauge", stats.shards as u64),
            (
                "tcsm_service_windows_allocated",
                "gauge",
                stats.windows_allocated,
            ),
            (
                "tcsm_service_resident_queries",
                "gauge",
                stats.resident_queries as u64,
            ),
            ("tcsm_service_admitted_total", "counter", stats.admitted),
            ("tcsm_service_retired_total", "counter", stats.retired),
            (
                "tcsm_service_disconnected_total",
                "counter",
                stats.disconnected,
            ),
            ("tcsm_service_events_total", "counter", stats.events),
            ("tcsm_service_batches_total", "counter", stats.batches),
            (
                "tcsm_service_kernel_invocations_total",
                "counter",
                stats.kernel_invocations,
            ),
            (
                "tcsm_service_kernel_lanes_total",
                "counter",
                stats.kernel_lanes,
            ),
            (
                "tcsm_service_kernel_early_exits_total",
                "counter",
                stats.kernel_early_exits,
            ),
            (
                "tcsm_service_retired_stats_evictions_total",
                "counter",
                stats.retired_stats_evictions,
            ),
        ] {
            w.type_header(name, kind);
            w.sample(name, &[], value);
        }
        const HIST: &str = "tcsm_phase_latency_us";
        w.type_header(HIST, "summary");
        for phase in Phase::ALL {
            if let Some(h) = self.recorder.histogram(phase) {
                w.histogram(HIST, &[("scope", "service"), ("phase", phase.name())], h);
            }
        }
        for (si, shard) in self.shards.iter().enumerate() {
            let mut acc: [LatencyHistogram; Phase::COUNT] =
                std::array::from_fn(|_| LatencyHistogram::new());
            for slot in &shard.slots {
                slot.rt.telemetry().merge_into(&mut acc);
            }
            let scope = format!("shard{si}");
            for phase in Phase::ALL {
                let h = &acc[phase.index()];
                if !h.is_empty() {
                    w.histogram(HIST, &[("scope", &scope), ("phase", phase.name())], h);
                }
            }
        }
        for shard in &self.shards {
            for slot in &shard.slots {
                let scope = format!("q{}", slot.id);
                for phase in Phase::ALL {
                    if let Some(h) = slot.rt.telemetry().histogram(phase) {
                        w.histogram(HIST, &[("scope", &scope), ("phase", phase.name())], h);
                    }
                }
            }
        }
        w.finish()
    }

    /// Overrides the env-seeded audit cadence (test hook).
    #[doc(hidden)]
    pub fn set_audit(&mut self, level: tcsm_core::AuditLevel, every: u64) {
        self.auditor = tcsm_core::Auditor::with(level, every);
    }

    /// From-scratch consistency audit of every resident runtime against
    /// its shard's window (differential-suite hook).
    #[doc(hidden)]
    pub fn check_consistency(&self) {
        let full = self.full;
        for shard in &self.shards {
            for slot in &shard.slots {
                if !slot.rt.done() {
                    slot.rt.check_consistency(&shard.window, |k| full.edge(k));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, CountingSink};
    use tcsm_core::TcmEngine;
    use tcsm_graph::{QueryGraphBuilder, TemporalGraphBuilder};

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
            ..EngineConfig::default()
        }
    }

    fn standalone(q: &QueryGraph, g: &TemporalGraph, delta: i64) -> (Vec<MatchEvent>, EngineStats) {
        let mut e = TcmEngine::new(q, g, delta, serial_cfg()).unwrap();
        let out = e.run();
        (out, *e.stats())
    }

    #[test]
    fn shared_window_service_matches_standalone_engines() {
        let (queries, g) = workload();
        for shards in [1usize, 2, 3] {
            let cfg = ServiceConfig {
                shards,
                threads: 0,
                batching: false,
                directed: false,
                policy: ShardPolicy::LabelLocality,
            };
            let mut svc = MatchService::new(&g, 10, cfg).unwrap();
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    let (sink, got) = CollectingSink::new();
                    (svc.add_query(q, serial_cfg(), Box::new(sink)), got)
                })
                .collect();
            svc.run();
            assert_eq!(svc.stats().windows_allocated, shards as u64);
            for (q, (id, got)) in queries.iter().zip(&handles) {
                let (expect, stats) = standalone(q, &g, 10);
                assert_eq!(got.take(), expect, "stream diverged ({shards} shards)");
                assert_eq!(
                    svc.query_stats(*id).unwrap().semantic(),
                    stats.semantic(),
                    "stats diverged ({shards} shards)"
                );
            }
        }
    }

    #[test]
    fn deep_audit_every_event_passes_on_the_service_path() {
        let (queries, g) = workload();
        for shards in [1usize, 2] {
            let cfg = ServiceConfig {
                shards,
                threads: 0,
                batching: false,
                directed: false,
                policy: ShardPolicy::LabelLocality,
            };
            let mut svc = MatchService::new(&g, 10, cfg).unwrap();
            for q in &queries {
                svc.add_query(q, serial_cfg(), Box::new(CountingSink::new().0));
            }
            // The step-path hook panics on any violation; the final sweep
            // below then re-checks explicitly.
            svc.set_audit(tcsm_core::AuditLevel::Deep, 1);
            svc.run();
            let out = svc.audit_now(tcsm_core::AuditLevel::Deep);
            assert!(out.is_empty(), "service audit flagged: {out:?}");
        }
    }

    #[test]
    fn label_locality_groups_same_label_queries() {
        let mut gb = TemporalGraphBuilder::new();
        gb.vertex(0);
        gb.vertex(0);
        gb.vertex(1);
        gb.vertex(1);
        let g = gb.build().unwrap();
        let q_of = |label: u32| {
            let mut qb = QueryGraphBuilder::new();
            let (a, b) = (qb.vertex(label), qb.vertex(label));
            qb.edge(a, b);
            qb.build().unwrap()
        };
        let mut svc = MatchService::new(
            &g,
            10,
            ServiceConfig {
                shards: 2,
                threads: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let a1 = svc.add_query(&q_of(0), serial_cfg(), Box::new(CountingSink::new().0));
        let b1 = svc.add_query(&q_of(1), serial_cfg(), Box::new(CountingSink::new().0));
        let a2 = svc.add_query(&q_of(0), serial_cfg(), Box::new(CountingSink::new().0));
        let b2 = svc.add_query(&q_of(1), serial_cfg(), Box::new(CountingSink::new().0));
        assert_eq!(
            svc.shard_of(a1),
            svc.shard_of(a2),
            "label-0 queries co-locate"
        );
        assert_eq!(
            svc.shard_of(b1),
            svc.shard_of(b2),
            "label-1 queries co-locate"
        );
        assert_ne!(
            svc.shard_of(a1),
            svc.shard_of(b1),
            "labels split across shards"
        );
    }

    #[test]
    fn spread_policy_gives_one_query_per_shard() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(
            &g,
            10,
            ServiceConfig {
                shards: queries.len(),
                policy: ShardPolicy::Spread,
                threads: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let ids: Vec<_> = queries
            .iter()
            .map(|q| svc.add_query(q, serial_cfg(), Box::new(CountingSink::new().0)))
            .collect();
        let mut shards: Vec<_> = ids.iter().map(|&id| svc.shard_of(id).unwrap()).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), queries.len(), "one shard per query");
    }

    #[test]
    fn mid_stream_admission_reports_the_standalone_suffix() {
        let (queries, g) = workload();
        let q = &queries[1];
        // Standalone engine, recording the stream per event.
        let mut engine = TcmEngine::new(q, &g, 10, serial_cfg()).unwrap();
        let mut per_event: Vec<Vec<MatchEvent>> = Vec::new();
        let mut buf = Vec::new();
        while engine.step(&mut buf) {
            per_event.push(std::mem::take(&mut buf));
        }
        let total_events = per_event.len();
        for admit_at in [0usize, 1, total_events / 3, total_events / 2] {
            let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
            for _ in 0..admit_at {
                assert!(svc.step());
            }
            let (sink, got) = CollectingSink::new();
            let id = svc.add_query(q, serial_cfg(), Box::new(sink));
            svc.run();
            let expect: Vec<MatchEvent> = per_event[admit_at..]
                .iter()
                .flat_map(|v| v.iter().cloned())
                .collect();
            assert_eq!(
                got.take(),
                expect,
                "admission at event {admit_at} must report the standalone suffix"
            );
            assert_eq!(
                svc.query_stats(id).unwrap().events,
                (total_events - admit_at) as u64
            );
        }
    }

    /// A query admitted mid-stream reports the expiry of embeddings that
    /// occurred before it was resident, so `expired` runs ahead of
    /// `occurred`: the Cheap audit's ledger law must account for the
    /// embeddings alive at admission (a daemon at `TCSM_AUDIT=cheap` used to
    /// panic here on `expired <= occurred`).
    #[test]
    fn cheap_audit_stays_clean_after_mid_stream_admission() {
        let (queries, g) = workload();
        for counting in [false, true] {
            let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
            for _ in 0..20 {
                assert!(svc.step());
            }
            let sink: Box<dyn ResultSink> = if counting {
                Box::new(CountingSink::new().0)
            } else {
                Box::new(CollectingSink::new().0)
            };
            let id = svc.add_query(&queries[0], serial_cfg(), sink);
            let mut ran_ahead = false;
            loop {
                let out = svc.audit_now(tcsm_core::AuditLevel::Cheap);
                assert!(out.is_empty(), "cheap audit flagged: {out:?}");
                let s = svc.query_stats(id).unwrap();
                ran_ahead |= s.expired > s.occurred;
                if !svc.step() {
                    break;
                }
            }
            assert!(ran_ahead, "workload must expire pre-admission embeddings");
        }
    }

    #[test]
    fn removal_mid_stream_leaves_other_queries_untouched() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(
            &g,
            10,
            ServiceConfig {
                shards: 2,
                threads: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let (sink, got) = CollectingSink::new();
                (svc.add_query(q, serial_cfg(), Box::new(sink)), got)
            })
            .collect();
        for _ in 0..svc.remaining_events() / 2 {
            svc.step();
        }
        let removed = svc.remove_query(handles[0].0).expect("resident");
        assert!(removed.events > 0);
        assert!(svc.remove_query(handles[0].0).is_none(), "retired is gone");
        assert_eq!(
            svc.query_stats(handles[0].0).map(|s| s.events),
            Some(removed.events),
            "retired stats stay queryable"
        );
        svc.run();
        for (q, (id, got)) in queries.iter().zip(&handles).skip(1) {
            let (expect, stats) = standalone(q, &g, 10);
            assert_eq!(got.take(), expect, "survivor stream disturbed by removal");
            assert_eq!(svc.query_stats(*id).unwrap().semantic(), stats.semantic());
        }
    }

    #[test]
    fn counting_sink_counts_without_materializing() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
        let (sink, counts) = CountingSink::new();
        let id = svc.add_query(&queries[0], serial_cfg(), Box::new(sink));
        svc.run();
        let stats = svc.query_stats(id).unwrap();
        assert!(stats.occurred > 0);
        assert_eq!(counts.occurred(), stats.occurred);
        assert_eq!(counts.expired(), stats.expired);
    }

    /// A sink whose consumer dies after `fail_after` deliveries.
    struct FlakySink {
        inner: CollectingSink,
        deliveries: usize,
        fail_after: usize,
    }

    impl ResultSink for FlakySink {
        fn deliver(
            &mut self,
            qid: QueryId,
            events: &mut Vec<MatchEvent>,
            occ: u64,
            exp: u64,
        ) -> Result<(), crate::SinkClosed> {
            if self.deliveries >= self.fail_after {
                return Err(crate::SinkClosed);
            }
            self.deliveries += 1;
            self.inner.deliver(qid, events, occ, exp)
        }
    }

    #[test]
    fn disconnected_sink_is_auto_retired_without_touching_survivors() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(
            &g,
            10,
            ServiceConfig {
                shards: 2,
                threads: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let (flaky_got_sink, flaky_got) = CollectingSink::new();
        let flaky_id = svc.add_query(
            &queries[0],
            serial_cfg(),
            Box::new(FlakySink {
                inner: flaky_got_sink,
                deliveries: 0,
                fail_after: 3,
            }),
        );
        let survivors: Vec<_> = queries[1..]
            .iter()
            .map(|q| {
                let (sink, got) = CollectingSink::new();
                (svc.add_query(q, serial_cfg(), Box::new(sink)), got)
            })
            .collect();
        svc.run();
        // The flaky query was auto-retired at its fourth delivery…
        assert!(svc.shard_of(flaky_id).is_none(), "dead query not resident");
        assert_eq!(svc.stats().disconnected, 1);
        assert_eq!(svc.stats().retired, 1);
        assert_eq!(svc.drain_disconnected(), vec![flaky_id]);
        assert!(svc.drain_disconnected().is_empty(), "drain is take-once");
        // …its delivered prefix is exactly the standalone prefix…
        let (full, _) = standalone(&queries[0], &g, 10);
        let delivered = flaky_got.take();
        assert_eq!(delivered[..], full[..delivered.len()]);
        // …its final stats are peekable and takeable…
        assert!(svc.query_stats(flaky_id).is_some());
        assert!(svc.take_retired_stats(flaky_id).is_some());
        assert!(svc.take_retired_stats(flaky_id).is_none(), "take-once");
        // …and every survivor's stream is byte-identical to standalone.
        for (q, (id, got)) in queries[1..].iter().zip(&survivors) {
            let (expect, _) = standalone(q, &g, 10);
            assert_eq!(got.take(), expect, "survivor {id} disturbed");
        }
    }

    #[test]
    fn retired_stats_table_is_bounded() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
        let n = crate::RETIRED_STATS_CAPACITY + 8;
        let mut ids = Vec::new();
        for _ in 0..n {
            let id = svc.add_query(&queries[0], serial_cfg(), Box::new(CountingSink::new().0));
            ids.push(id);
            svc.remove_query(id).expect("resident");
        }
        assert_eq!(svc.stats().retired, n as u64);
        // Oldest retirements evicted, newest kept, table at capacity.
        assert!(svc.query_stats(ids[0]).is_none(), "oldest evicted");
        assert!(svc.query_stats(ids[7]).is_none(), "8 over capacity");
        assert!(svc.query_stats(ids[8]).is_some(), "within bound kept");
        assert!(svc.query_stats(*ids.last().unwrap()).is_some());
        // Each eviction is counted — the operator-facing signal that
        // `take_retired_stats` readers are falling behind.
        assert_eq!(svc.stats().retired_stats_evictions, 8);
    }

    #[test]
    fn retired_kernel_counters_fold_into_service_stats() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
        let id = svc.add_query(&queries[0], serial_cfg(), Box::new(CountingSink::new().0));
        svc.run();
        let resident = svc.stats();
        let per_query = svc.query_stats(id).unwrap();
        assert!(
            per_query.kernel_invocations > 0,
            "workload must exercise the kernel for this test to bite"
        );
        assert_eq!(resident.kernel_invocations, per_query.kernel_invocations);
        // Retiring the query must not make its kernel work vanish from
        // the aggregate.
        svc.remove_query(id).expect("resident");
        let after = svc.stats();
        assert_eq!(after.kernel_invocations, resident.kernel_invocations);
        assert_eq!(after.kernel_lanes, resident.kernel_lanes);
        assert_eq!(after.kernel_early_exits, resident.kernel_early_exits);
    }

    #[test]
    fn metrics_exposition_parses_and_quantiles_are_ordered() {
        use tcsm_telemetry::{parse_exposition, ManualClock, TraceLevel};
        let (queries, g) = workload();
        let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
        let id = svc.add_query(&queries[0], serial_cfg(), Box::new(CountingSink::new().0));
        svc.set_trace(TraceLevel::Counters, Arc::new(ManualClock::new(3)));
        svc.run();
        let text = svc.metrics_text();
        let samples = parse_exposition(&text).expect("exposition parses");
        // Counters in the text agree with the live aggregate.
        let stats = svc.stats();
        let counter = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(counter("tcsm_service_events_total"), stats.events as f64);
        assert_eq!(
            counter("tcsm_service_admitted_total"),
            stats.admitted as f64
        );
        assert_eq!(
            counter("tcsm_service_kernel_invocations_total"),
            stats.kernel_invocations as f64
        );
        // Every (scope, phase) histogram family has ordered quantiles, and
        // the service and per-query scopes are both present.
        let pick = |scope: &str, phase: &str, name: &str, quant: Option<&str>| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.label("scope") == Some(scope)
                        && s.label("phase") == Some(phase)
                        && s.label("quantile") == quant
                })
                .map(|s| s.value)
        };
        let mut scopes_seen = Vec::new();
        for s in &samples {
            if s.name != "tcsm_phase_latency_us" || s.label("quantile") != Some("0.5") {
                continue;
            }
            let (scope, phase) = (s.label("scope").unwrap(), s.label("phase").unwrap());
            scopes_seen.push(scope.to_string());
            let p50 = s.value;
            let p90 = pick(scope, phase, "tcsm_phase_latency_us", Some("0.9")).unwrap();
            let p99 = pick(scope, phase, "tcsm_phase_latency_us", Some("0.99")).unwrap();
            let max = pick(scope, phase, "tcsm_phase_latency_us_max", None).unwrap();
            assert!(
                p50 <= p90 && p90 <= p99 && p99 <= max,
                "{scope}/{phase}: quantiles out of order: {p50} {p90} {p99} {max}"
            );
        }
        assert!(scopes_seen.iter().any(|s| s == "service"), "service scope");
        let qscope = format!("q{}", id.raw());
        assert!(scopes_seen.contains(&qscope), "per-query scope {qscope}");
        assert!(scopes_seen.iter().any(|s| s == "shard0"), "shard scope");
    }

    #[test]
    fn query_id_wraparound_never_aliases_a_live_id() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
        let first = svc.add_query(&queries[0], serial_cfg(), Box::new(CountingSink::new().0));
        assert_eq!(first.raw(), 0);
        // Fast-forward the id cursor to the edge of the u32 space.
        svc.next_id = u32::MAX;
        let high = svc.add_query(&queries[1], serial_cfg(), Box::new(CountingSink::new().0));
        assert_eq!(high.raw(), u32::MAX);
        // The wrapped candidate 0 aliases the live `first`: it must be
        // skipped, not handed out twice.
        let wrapped = svc.add_query(&queries[2], serial_cfg(), Box::new(CountingSink::new().0));
        assert_eq!(wrapped.raw(), 1, "live id 0 skipped after wrap");
        assert_eq!(svc.stats().resident_queries, 3);
        // All three remain individually addressable.
        for id in [first, high, wrapped] {
            assert!(svc.shard_of(id).is_some(), "{id} resident after wrap");
        }
        // And a retired id is skipped too while its stats are held.
        svc.remove_query(high).unwrap();
        svc.next_id = u32::MAX;
        let again = svc.add_query(&queries[1], serial_cfg(), Box::new(CountingSink::new().0));
        assert_eq!(again.raw(), 2, "retired id not re-issued while held");
    }

    #[test]
    fn set_sink_reattaches_a_subscriber() {
        let (queries, g) = workload();
        let mut svc = MatchService::new(&g, 10, ServiceConfig::default()).unwrap();
        let id = svc.add_query(&queries[0], serial_cfg(), Box::new(CollectingSink::new().0));
        for _ in 0..svc.remaining_events() / 2 {
            svc.step();
        }
        let (sink, got) = CollectingSink::new();
        assert!(svc.set_sink(id, Box::new(sink)));
        let before = svc.query_stats(id).unwrap().events;
        svc.run();
        // The replacement sink sees exactly the suffix.
        let mut engine = TcmEngine::new(&queries[0], &g, 10, serial_cfg()).expect("engine builds");
        let mut per_event = Vec::new();
        let mut buf = Vec::new();
        while engine.step(&mut buf) {
            per_event.push(std::mem::take(&mut buf));
        }
        let expect: Vec<MatchEvent> = per_event[before as usize..]
            .iter()
            .flatten()
            .cloned()
            .collect();
        assert_eq!(got.take(), expect);
        assert!(
            !svc.set_sink(QueryId::from_raw(999), Box::new(CollectingSink::new().0)),
            "unknown id refused"
        );
    }

    #[test]
    fn service_wrappers_match_core_run_queries() {
        let (queries, g) = workload();
        let ours = crate::run_queries_parallel(&queries, &g, 10, serial_cfg(), 2).unwrap();
        #[allow(deprecated)]
        let theirs = tcsm_core::run_queries_parallel(&queries, &g, 10, serial_cfg(), 2).unwrap();
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.semantic(), b.semantic());
        }
    }
}
