//! The continuous-matching driver (Algorithm 1), in two regimes:
//!
//! * **serial** ([`TcmEngine::step`]): one edge per event, exactly the
//!   paper's loop;
//! * **batched** ([`TcmEngine::step_batch`]): one same-`(timestamp, kind)`
//!   delta batch per step — the window is mutated for the whole batch, the
//!   filter bank and DCS each drain one combined worklist, and a single
//!   `FindMatches` sweep (seeded by every batch edge, with the per-seed
//!   same-timestamp exclusion of the matcher) reports the same match
//!   multiset the serial order would.
//!
//! # Ownership split
//!
//! The engine owns the *stream state* — the event queue, its cursor, and
//! the live [`WindowGraph`] — and delegates all per-query work to one
//! [`QueryRuntime`], which borrows the window per call. That split is what
//! the multi-query service builds on: `tcsm-service` owns one window per
//! shard and drives many runtimes over it, while this engine remains the
//! one-query configuration of the very same pipeline (the service
//! differential suite pins that they stay byte-identical).
//!
//! # Batch staging & reclamation
//!
//! Each batch stages state strictly between `begin_batch` boundaries: the
//! window parks every bucket the batch drains on a *dying* list (ids stay
//! resolvable so the bank/DCS removal deltas remain index-addressed) and
//! reclaims them when the next batch opens; the filter instances run one
//! generation-stamped worklist per batch; the DCS applies the batch's
//! deltas in one monotone pass. Nothing is freed mid-batch, so no layer
//! ever observes a half-applied delta (the bank debug-asserts this).
//!
//! Expired embeddings are reported *before* the batch's removals, occurred
//! embeddings after the batch's insertions (the runtime's module docs give
//! the reason, and what an expiration costs).

use crate::audit::{AuditLevel, AuditViolation, Auditor};
use crate::config::EngineConfig;
use crate::embedding::MatchEvent;
use crate::pool::WorkerPool;
use crate::runtime::QueryRuntime;
use crate::stats::EngineStats;
use std::sync::Arc;
use tcsm_dag::QueryDag;
use tcsm_graph::{
    EventKind, EventQueue, GraphError, QueryGraph, TemporalEdge, TemporalGraph, WindowGraph,
};
use tcsm_telemetry::{Clock, Phase};

/// Time-constrained continuous subgraph matching over one stream.
///
/// Owns the stream state (event queue + window graph) and one
/// [`QueryRuntime`] (filter bank, DCS, matcher). Process the stream with
/// [`TcmEngine::run`] (whole stream) or [`TcmEngine::step`] (one event at
/// a time).
pub struct TcmEngine<'g> {
    full: &'g TemporalGraph,
    window: WindowGraph,
    queue: EventQueue,
    next_event: usize,
    rt: QueryRuntime,
    /// Materialized edges of the current delta batch (reused allocation).
    batch_scratch: Vec<TemporalEdge>,
    /// Step-path invariant audit cadence (`TCSM_AUDIT` × `TCSM_AUDIT_EVERY`).
    auditor: Auditor,
}

impl<'g> TcmEngine<'g> {
    /// Builds an engine for query `q` over the stream of `g` with window
    /// `delta` (Algorithm 1, lines 1–8). With [`EngineConfig::threads`]
    /// non-zero the engine owns a private [`WorkerPool`] of that width; use
    /// [`TcmEngine::with_pool`] to share one pool across engines instead.
    pub fn new(
        q: &QueryGraph,
        g: &'g TemporalGraph,
        delta: i64,
        cfg: EngineConfig,
    ) -> Result<TcmEngine<'g>, GraphError> {
        let pool = match cfg.threads {
            0 => None,
            n => Some(Arc::new(WorkerPool::new(n))),
        };
        TcmEngine::build(q, g, delta, cfg, pool)
    }

    /// Builds an engine that runs its parallel phases on an existing pool
    /// (the pool outlives the engine; several engines may share it as long
    /// as they are driven from different threads only via outer fan-outs,
    /// never concurrently through one pool). [`EngineConfig::threads`] is
    /// ignored for pool sizing.
    pub fn with_pool(
        q: &QueryGraph,
        g: &'g TemporalGraph,
        delta: i64,
        cfg: EngineConfig,
        pool: Arc<WorkerPool>,
    ) -> Result<TcmEngine<'g>, GraphError> {
        TcmEngine::build(q, g, delta, cfg, Some(pool))
    }

    fn build(
        q: &QueryGraph,
        g: &'g TemporalGraph,
        delta: i64,
        cfg: EngineConfig,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<TcmEngine<'g>, GraphError> {
        let queue = EventQueue::new(g, delta)?;
        let window = WindowGraph::new(g.labels().to_vec(), cfg.directed);
        let rt = QueryRuntime::new(q, &window, delta, cfg, pool);
        Ok(TcmEngine {
            full: g,
            window,
            queue,
            next_event: 0,
            rt,
            batch_scratch: Vec::new(),
            auditor: Auditor::from_env(),
        })
    }

    /// The query DAG chosen by the greedy builder.
    #[inline]
    pub fn dag(&self) -> &QueryDag {
        self.rt.dag()
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        self.rt.stats()
    }

    /// Overrides the Eq. (1) kernel on every filter instance (tests and
    /// interleaved benches; production selection is `TCSM_KERNEL`).
    #[doc(hidden)]
    pub fn set_kernel(&mut self, kern: tcsm_filter::KernelKind) {
        self.rt.set_kernel(kern);
    }

    /// The per-phase latency recorder: queue pop, filter update, DCS
    /// apply, and `FindMatches` sweep spans (empty unless `TCSM_TRACE`
    /// enabled tracing). Timing is telemetry-only — never part of
    /// [`EngineStats`] or any snapshot.
    #[inline]
    pub fn telemetry(&self) -> &tcsm_telemetry::PhaseRecorder {
        self.rt.telemetry()
    }

    /// Replaces the recorder with one at `level` reading `clock` —
    /// deterministic-clock tests and the interleaved trace benches
    /// (production selection is `TCSM_TRACE`).
    #[doc(hidden)]
    pub fn set_trace(&mut self, level: tcsm_telemetry::TraceLevel, clock: Arc<dyn Clock>) {
        self.rt.set_trace(level, clock);
    }

    /// The live window graph.
    #[inline]
    pub fn window(&self) -> &WindowGraph {
        &self.window
    }

    /// Current number of DCS edge pairs (Table V's "edges in DCS").
    #[inline]
    pub fn dcs_edges(&self) -> usize {
        self.rt.dcs_edges()
    }

    /// Current number of `d2` candidate vertices (Table V's second metric).
    #[inline]
    pub fn dcs_vertices(&self) -> usize {
        self.rt.dcs_vertices()
    }

    /// Remaining events in the stream.
    pub fn remaining_events(&self) -> usize {
        self.queue.len() - self.next_event
    }

    /// Processes one stream event, appending any match events to `out`.
    /// Returns `false` when the stream is exhausted or a total budget was
    /// hit (check [`EngineStats::budget_exhausted`]).
    pub fn step(&mut self, out: &mut Vec<MatchEvent>) -> bool {
        if self.rt.done() {
            return false;
        }
        let t = self.rt.telemetry().start();
        let Some(ev) = self.queue.events().get(self.next_event).copied() else {
            return false;
        };
        self.next_event += 1;
        let full = self.full;
        let edge = *full.edge(ev.edge);
        self.rt.telemetry_mut().stop(Phase::QueuePop, t);
        match ev.kind {
            EventKind::Insert => {
                self.window.insert(&edge);
                self.rt
                    .apply_insert(&self.window, &edge, |k| full.edge(k), out);
            }
            EventKind::Delete => {
                // Report before removing: see the runtime's aliasing rules.
                self.rt.sweep_expiring(&self.window, &edge, out);
                self.window.remove(&edge);
                self.rt.apply_delete(&self.window, &edge, |k| full.edge(k));
            }
        }
        self.maybe_audit(1);
        true
    }

    /// Processes one same-`(timestamp, kind)` delta batch, appending any
    /// match events to `out`. Returns `false` when the stream is exhausted
    /// or a total budget was hit.
    ///
    /// Reports exactly the match multiset the serial [`TcmEngine::step`]
    /// order would (the differential suite pins this), while paying one
    /// filter/DCS worklist drain and one sweep per batch instead of one per
    /// edge. Per-event search budgets apply per *batch* in this regime, so
    /// budget-limited runs may abort at different points than serial ones.
    /// Interleaving with [`TcmEngine::step`] is safe: a call that lands
    /// mid-batch completes that batch serially (one event per call) before
    /// batching resumes.
    pub fn step_batch(&mut self, out: &mut Vec<MatchEvent>) -> bool {
        if self.rt.done() {
            return false;
        }
        // Mixing step() and step_batch() can leave the cursor mid-batch;
        // the batch handlers' completeness invariant (every same-timestamp
        // edge is in the batch) would then be violated, so finish the
        // partial batch serially and resume batching at the next boundary.
        if !self.at_batch_boundary() {
            return self.step(out);
        }
        let t = self.rt.telemetry().start();
        let Some(batch) = self.queue.batch_at(self.next_event) else {
            return false;
        };
        let kind = batch.kind;
        let full = self.full;
        let mut edges = std::mem::take(&mut self.batch_scratch);
        edges.clear();
        edges.extend(batch.events.iter().map(|ev| *full.edge(ev.edge)));
        self.next_event += edges.len();
        self.rt.telemetry_mut().stop(Phase::QueuePop, t);
        match kind {
            EventKind::Insert => {
                // Window first (whole batch), then one filter/DCS delta,
                // then one combined sweep.
                self.window.begin_batch();
                for e in &edges {
                    self.window.insert_deferred(e);
                }
                self.rt
                    .apply_insert_batch(&self.window, &edges, |k| full.edge(k), out);
            }
            EventKind::Delete => {
                // Report before removing anything; the per-seed exclusion
                // reproduces the serial progressive removals.
                self.rt.sweep_expiring_batch(&self.window, &edges, out);
                self.window.begin_batch();
                for e in &edges {
                    self.window.remove_deferred(e);
                }
                self.rt
                    .apply_delete_batch(&self.window, &edges, |k| full.edge(k));
            }
        }
        let processed = edges.len() as u64;
        self.batch_scratch = edges;
        self.maybe_audit(processed);
        true
    }

    /// Is the event cursor at a delta-batch boundary (start of stream or a
    /// `(time, kind)` change)? Serial stepping can park it mid-batch.
    fn at_batch_boundary(&self) -> bool {
        let events = self.queue.events();
        let Some(next) = events.get(self.next_event) else {
            return true;
        };
        match self.next_event.checked_sub(1).and_then(|i| events.get(i)) {
            Some(prev) => (prev.at, prev.kind) != (next.at, next.kind),
            None => true,
        }
    }

    /// One step in the mode [`EngineConfig::batching`] selects.
    #[inline]
    fn step_dispatch(&mut self, out: &mut Vec<MatchEvent>) -> bool {
        if self.rt.config().batching {
            self.step_batch(out)
        } else {
            self.step(out)
        }
    }

    /// Processes the whole stream and returns every match event, honouring
    /// [`EngineConfig::batching`].
    pub fn run(&mut self) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        while self.step_dispatch(&mut out) {}
        out
    }

    /// Processes the whole stream in delta batches regardless of the
    /// configured mode.
    pub fn run_batched(&mut self) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        while self.step_batch(&mut out) {}
        out
    }

    /// Processes the whole stream counting matches without materializing
    /// them (used by the benchmark harness), honouring
    /// [`EngineConfig::batching`].
    pub fn run_counting(&mut self) -> &EngineStats {
        let mut out = Vec::new();
        while self.step_dispatch(&mut out) {
            out.clear();
        }
        self.rt.stats()
    }

    /// Advances the audit countdown by `events` processed events and runs
    /// the configured-level audit when it fires, panicking on violations
    /// (the step-path tripwire — see [`crate::audit`]).
    fn maybe_audit(&mut self, events: u64) {
        if !self.auditor.due(events) {
            return;
        }
        let out = self.audit_now(self.auditor.level());
        crate::audit::expect_clean("TcmEngine step audit", &out);
    }

    /// Runs the invariant audit at `level` against the current window and
    /// returns the violations found (empty on a healthy engine).
    pub fn audit_now(&self, level: AuditLevel) -> Vec<AuditViolation> {
        let full = self.full;
        self.rt.audit(&self.window, |k| full.edge(k), level)
    }

    /// Overrides the step-path audit level/cadence chosen from the
    /// environment (tests; production selection is `TCSM_AUDIT` ×
    /// `TCSM_AUDIT_EVERY`).
    #[doc(hidden)]
    pub fn set_audit(&mut self, level: AuditLevel, every: u64) {
        self.auditor = Auditor::with(level, every);
    }

    /// Corruption-hook access for the negative-test corpus.
    #[doc(hidden)]
    pub fn runtime_mut(&mut self) -> &mut QueryRuntime {
        &mut self.rt
    }

    /// Corruption hook for the negative-test corpus: drops one expiry-ledger
    /// charge, or (`moved`) moves it to a neighbouring parallel edge.
    /// Returns `false` when the window offers no such pair.
    #[doc(hidden)]
    pub fn corrupt_ledger(&mut self, moved: bool) -> bool {
        self.rt.corrupt_ledger(&self.window, moved)
    }

    /// From-scratch consistency audit of every incremental structure
    /// (filter tables, bank membership, DCS candidacies) against the
    /// current window — the invariant the differential suite checks after
    /// every batch.
    #[doc(hidden)]
    pub fn check_consistency(&self) {
        let full = self.full;
        self.rt.check_consistency(&self.window, |k| full.edge(k));
    }
}
