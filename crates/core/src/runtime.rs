//! The per-query matching runtime over a **borrowed** window.
//!
//! [`QueryRuntime`] is everything of one standing query's pipeline that is
//! *not* the stream state: the query and its DAG, the max-min filter bank,
//! the DCS, the backtracking matcher's scratch, and the per-query
//! [`EngineStats`]. It never owns a [`WindowGraph`] — every method borrows
//! the window of whoever drives it, so several runtimes can observe the
//! same insert/expire deltas of **one shared window**:
//!
//! * [`crate::TcmEngine`] owns one window, one event queue, and one
//!   runtime — the classic single-query engine, now a thin shell;
//! * `tcsm-service`'s `MatchService` owns one window *per shard* and fans
//!   each stream delta out to all runtimes resident on that shard.
//!
//! # Aliasing rules (what sharing a window requires)
//!
//! The runtime reads the window but never mutates it; the owner applies
//! each stream delta to the window exactly once and then lets every
//! runtime process it. The required interleaving mirrors the serial
//! Algorithm 1:
//!
//! * **arrivals**: mutate the window first, then call
//!   [`QueryRuntime::apply_insert`] (or the batch form) on each runtime —
//!   the filter/DCS update and the `FindMatches` sweep both expect the
//!   window to already contain the batch;
//! * **expirations**: call [`QueryRuntime::sweep_expiring`] (or the batch
//!   form) on each runtime *before* mutating the window, then mutate, then
//!   call [`QueryRuntime::apply_delete`]/`..._batch` on each runtime. The
//!   order is forced by the materialising case: the embeddings that die
//!   with an edge are found by searching from it, and only while the
//!   window, the bank and the DCS still admit it (and, in a batch, every
//!   later batch edge) does that search see them. After the removal the
//!   filter has withdrawn the edge's pairs and nothing is left to seed.
//!
//! The window's deferred bucket reclamation makes this sound for any
//! number of readers: ids of buckets drained by the current event/batch
//! stay resolvable until the owner opens the *next* one, so every
//! runtime's removal deltas stay index-addressed no matter how late in the
//! fan-out it runs.
//!
//! # Mid-stream admission
//!
//! [`QueryRuntime::sync_to_window`] re-derives the filter tables, the pair
//! membership, and the DCS from a window that is already populated (one
//! from-scratch rebuild, never on the per-event path). After it, the
//! runtime is byte-for-byte indistinguishable — match stream and semantic
//! stats alike — from one that observed every alive edge's arrival, which
//! is what lets `MatchService` admit queries while the stream runs.
//!
//! # Expiry ledger
//!
//! The paper's Algorithm 1 reports the embeddings that die with an expiring
//! edge by running `FindMatches` from it a second time. Every one of them
//! was already found once, when it occurred, and at that moment it is
//! known which expiration will end it.
//!
//! **The minimum-edge argument.** Order data edges by `(Ts, EdgeKey)`. The
//! event queue sorts by `(at, kind, edge)` and every lifetime is the same
//! `δ`, so edges leave the window in exactly that order. An embedding is
//! alive while all its edges are, hence it dies when its *minimum* edge
//! expires — and at that moment all its other edges are still alive, so it
//! is among the embeddings a search from the expiring edge finds. Conversely
//! an alive embedding containing the expiring edge has no older edge (that
//! one would be gone already), so the expiring edge is its minimum. The
//! embeddings that die with an edge are exactly those it is the minimum of.
//!
//! The ledger is that fact kept as a table: `EdgeKey ↦ number of alive
//! embeddings whose minimum edge it is`, zero entries absent. The matcher
//! carries the running minimum of the mapped edges down its recursion and
//! charges each occurrence to it (see [`crate::matcher`], which also folds
//! Case 1's multiplied embeddings in without enumerating them);
//! [`QueryRuntime::sweep_expiring`] takes the expiring edge's entry out.
//!
//! **Equal timestamps.** `Delete < Insert` at one instant means an edge
//! expiring at `t` is gone before the edges arriving at `t` are searched:
//! no embedding ever holds both, so no charge is made to an edge that has
//! already left, and none is missed. Within an arrival batch each embedding
//! is found at its greatest batch edge with the later ones hidden, which
//! changes where it is found, not what its minimum is. Within an expiration
//! batch the serial order removes the batch edges by ascending key, and the
//! batch regime's rule — an embedding is reported at its *smallest* batch
//! edge, later seeds hiding earlier batch records — is the minimum-edge
//! rule restricted to one timestamp, where the key decides.
//!
//! **What an expiration costs.** A counting runtime
//! (`collect_matches = false`) adds the entry to `expired` and runs no
//! search. A materialising runtime has to produce the embeddings, and the
//! only way to do that without storing every alive one is the search; but
//! it skips the search when there is no entry (most expirations), and in
//! debug builds checks that the search found as many as were charged.
//! Which of the two a runtime is was already decided by its sink.
//!
//! **Memory.** One entry per alive edge that is the minimum of some alive
//! embedding — bounded by the window, in practice a few hundred — plus, in
//! the matcher's scratch, one counter per query edge and one per candidate
//! of each live Case-1 node. Nothing is kept per embedding or per event.
//!
//! **Seeding.** The ledger is derived state, like the DCS adjacency index:
//! snapshots do not carry it. [`QueryRuntime::sync_to_window`] and
//! [`QueryRuntime::restore_state`] count it from the populated window — one
//! enumeration per alive edge with every older record hidden, which by the
//! argument above finds exactly the embeddings charged to that edge — so an
//! admitted or restored runtime continues exactly like a resident one,
//! zero-charge skips included. The sum of the charges then exceeds
//! `occurred − expired` by the embeddings that were alive at seeding but
//! occurred elsewhere; the audit's conservation law carries that base.

use crate::config::EngineConfig;
use crate::embedding::{EmbeddingArena, MatchEvent, MatchKind};
use crate::matcher::{Ledger, Matcher, MatcherScratch};
use crate::pool::WorkerPool;
use crate::stats::EngineStats;
use std::sync::Arc;
use tcsm_dag::{build_best_dag, QueryDag};
use tcsm_dcs::Dcs;
use tcsm_filter::FilterBank;
use tcsm_graph::codec::{CodecError, Decoder, Encoder};
use tcsm_graph::{EdgeKey, QueryGraph, TemporalEdge, Ts, WindowGraph};
use tcsm_telemetry::{Clock, Phase, PhaseRecorder, TraceLevel};

/// Where one fanned-out sweep seed parks its results until the seed-order
/// merge on lane 0.
#[derive(Default)]
struct SeedSlot {
    /// The seed's embeddings (arena swapped out of the lane scratch).
    found: EmbeddingArena,
    /// The seed's matcher counters.
    stats: EngineStats,
    found_count: u64,
    /// The seed's ledger charges (arrival sweeps), merged and emptied with
    /// the rest of the slot.
    charges: Ledger,
}

/// What a `FindMatches` sweep is seeded by.
enum Sweep<'e> {
    /// One updated edge (the serial regime).
    Edge(&'e TemporalEdge),
    /// A whole delta batch, with the arrival/expiration exclusion flag.
    Batch(&'e [TemporalEdge], bool),
}

/// One standing query's full matching pipeline over a borrowed window
/// (see the module docs for the sharing contract).
pub struct QueryRuntime {
    q: QueryGraph,
    dag: QueryDag,
    bank: FilterBank,
    dcs: Dcs,
    /// Window length δ (fixes each expired embedding's report instant).
    delta: i64,
    cfg: EngineConfig,
    stats: EngineStats,
    deltas_scratch: Vec<tcsm_filter::DcsDelta>,
    /// Search-state buffers reused by every `FindMatches` call.
    matcher_scratch: MatcherScratch,
    /// The intra-query worker pool (`None` = fully serial runtime). Shared
    /// with the filter bank (instance updates) and the batched sweeps.
    pool: Option<Arc<WorkerPool>>,
    /// One matcher scratch per pool lane for fanned-out sweeps (lane 0 is
    /// the caller); pooled and reused across events.
    lane_scratch: Vec<MatcherScratch>,
    /// Per-seed result slots of fanned-out sweeps (reused across batches);
    /// merged in seed order so the match stream stays byte-identical.
    seed_slots: Vec<SeedSlot>,
    /// The expiry ledger (module docs): alive edge ↦ number of alive
    /// embeddings it is the minimum edge of; zero entries are absent.
    ledger: Ledger,
    /// `Σ ledger + expired − occurred` when the ledger was last seeded: the
    /// embeddings alive then that this runtime's counters never saw occur
    /// (0 for a runtime resident since an empty window).
    ledger_base: u64,
    /// The charged seeds of an expiration batch (reused allocation).
    dying_seeds: Vec<TemporalEdge>,
    /// Per-phase latency recorder (`TCSM_TRACE`-selected; a single branch
    /// per phase when off). Timing lives here, **never** in `stats` — the
    /// semantic counters and snapshot bytes stay identical at every level.
    recorder: PhaseRecorder,
}

impl QueryRuntime {
    /// Builds the runtime for `q` against `window`'s fixed vertex set with
    /// window length `delta`. The window may belong to anyone; if it is
    /// already populated, follow up with [`QueryRuntime::sync_to_window`].
    /// With `pool` set, the filter fan-out and batched sweeps run on it
    /// (the pool must be driven from this runtime's thread only).
    pub fn new(
        q: &QueryGraph,
        window: &WindowGraph,
        delta: i64,
        cfg: EngineConfig,
        pool: Option<Arc<WorkerPool>>,
    ) -> QueryRuntime {
        let dag = build_best_dag(q);
        let mut bank = FilterBank::new(q, &dag, cfg.preset.filter_mode(), window);
        if let Some(pool) = &pool {
            bank.set_exec(Some(Arc::clone(pool) as Arc<dyn tcsm_filter::Exec>));
        }
        let dcs = Dcs::new(dag.clone(), q, window);
        QueryRuntime {
            q: q.clone(),
            dag,
            bank,
            dcs,
            delta,
            cfg,
            stats: EngineStats::default(),
            deltas_scratch: Vec::new(),
            matcher_scratch: MatcherScratch::default(),
            pool,
            lane_scratch: Vec::new(),
            seed_slots: Vec::new(),
            ledger: Ledger::default(),
            ledger_base: 0,
            dying_seeds: Vec::new(),
            recorder: PhaseRecorder::from_env(),
        }
    }

    /// Re-derives the bank, the DCS and the expiry ledger from a window that
    /// already holds alive edges — mid-stream admission. One from-scratch
    /// rebuild; after it the runtime behaves exactly as if it had processed
    /// every prior arrival (stats stay zeroed: the query was not resident
    /// for those events).
    pub fn sync_to_window<'a>(
        &mut self,
        window: &WindowGraph,
        lookup: impl Fn(EdgeKey) -> &'a TemporalEdge + Copy,
    ) {
        let mut deltas = std::mem::take(&mut self.deltas_scratch);
        deltas.clear();
        self.bank.rebuild_from_window(
            &self.q,
            window,
            window
                .buckets()
                .flat_map(|b| b.iter().map(|r| lookup(r.key))),
            &mut deltas,
        );
        self.dcs = Dcs::new(self.dag.clone(), &self.q, window);
        self.dcs.apply(&self.q, window, lookup, &deltas);
        self.deltas_scratch = deltas;
        self.seed_ledger(window);
    }

    /// Every alive edge's ledger charge, counted from scratch: one
    /// enumeration per alive edge with everything that expires before it
    /// hidden, which finds exactly the alive embeddings it is the minimum
    /// edge of. Unbudgeted — the charges must be exact whatever budget the
    /// stream sweeps run under.
    fn recount_ledger(&self, window: &WindowGraph, scratch: &mut MatcherScratch) -> Ledger {
        let cfg = EngineConfig {
            budget: Default::default(),
            collect_matches: false,
            ..self.cfg
        };
        let mut ledger = Ledger::default();
        for bucket in window.buckets() {
            for rec in bucket.iter() {
                let (src, dst) = if rec.src_is_a {
                    (bucket.a, bucket.b)
                } else {
                    (bucket.b, bucket.a)
                };
                let sigma = TemporalEdge {
                    key: rec.key,
                    src,
                    dst,
                    time: rec.time,
                    label: rec.label,
                };
                let mut m = Matcher::new(&self.q, &self.dcs, &self.bank, &cfg, 0, scratch, None);
                m.run_seed(&sigma, false);
                if m.found_count != 0 {
                    ledger.insert(rec.key, m.found_count);
                }
            }
        }
        ledger
    }

    /// Seeds the ledger for a window this runtime did not watch fill
    /// (admission, restore), fixing [`QueryRuntime::ledger_base`] against
    /// the current counters.
    fn seed_ledger(&mut self, window: &WindowGraph) {
        let mut scratch = std::mem::take(&mut self.matcher_scratch);
        self.ledger = self.recount_ledger(window, &mut scratch);
        self.matcher_scratch = scratch;
        self.ledger_base = (self.ledger.values().sum::<u64>() + self.stats.expired)
            .wrapping_sub(self.stats.occurred);
    }

    /// The query this runtime matches.
    #[inline]
    pub fn query(&self) -> &QueryGraph {
        &self.q
    }

    /// The query DAG chosen by the greedy builder.
    #[inline]
    pub fn dag(&self) -> &QueryDag {
        &self.dag
    }

    /// The effective engine configuration.
    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Overrides the Eq. (1) kernel on every filter instance (tests and
    /// interleaved benches; production selection is `TCSM_KERNEL`).
    #[doc(hidden)]
    pub fn set_kernel(&mut self, kern: tcsm_filter::KernelKind) {
        self.bank.set_kernel(kern);
    }

    /// The per-phase latency recorder (empty unless `TCSM_TRACE` — or a
    /// [`QueryRuntime::set_trace`] override — enabled it). This is the
    /// aggregation seam: `tcsm-service` merges these histograms into its
    /// per-shard and per-service rollups.
    #[inline]
    pub fn telemetry(&self) -> &PhaseRecorder {
        &self.recorder
    }

    /// Mutable recorder access (subscriber registration, threshold
    /// overrides, and the owner recording owner-side phases — the engine
    /// books its queue-pop spans here so per-query phase totals stay
    /// coherent with one wall clock).
    #[inline]
    pub fn telemetry_mut(&mut self) -> &mut PhaseRecorder {
        &mut self.recorder
    }

    /// Replaces the recorder with one at `level` reading `clock` —
    /// deterministic-clock tests and the interleaved trace benches
    /// (production selection is `TCSM_TRACE`).
    #[doc(hidden)]
    pub fn set_trace(&mut self, level: TraceLevel, clock: Arc<dyn Clock>) {
        self.recorder = PhaseRecorder::with_clock(level, clock);
    }

    /// Current number of DCS edge pairs (Table V's "edges in DCS").
    #[inline]
    pub fn dcs_edges(&self) -> usize {
        self.bank.num_pairs()
    }

    /// Current number of `d2` candidate vertices (Table V's second metric).
    #[inline]
    pub fn dcs_vertices(&self) -> usize {
        self.dcs.num_candidate_vertices()
    }

    /// Has a total search budget been exhausted? Once true the owner must
    /// stop feeding this runtime (the standalone engine stops stepping; the
    /// service skips the query), matching the paper's "unsolved" outcome.
    #[inline]
    pub fn done(&self) -> bool {
        self.stats.budget_exhausted
    }

    /// One edge arrival. `window` must already contain `edge`.
    pub fn apply_insert<'a>(
        &mut self,
        window: &WindowGraph,
        edge: &TemporalEdge,
        lookup: impl Fn(EdgeKey) -> &'a TemporalEdge,
        out: &mut Vec<MatchEvent>,
    ) {
        self.stats.events += 1;
        let mut deltas = std::mem::take(&mut self.deltas_scratch);
        deltas.clear();
        let t = self.recorder.start();
        self.bank
            .on_insert(&self.q, window, edge, &lookup, &mut deltas);
        self.recorder.stop(Phase::Filter, t);
        let t = self.recorder.start();
        self.dcs.apply(&self.q, window, &lookup, &deltas);
        self.recorder.stop(Phase::DcsApply, t);
        self.deltas_scratch = deltas;
        self.find_matches_sweep(Sweep::Edge(edge), MatchKind::Occurred, out);
        self.sample_dcs(1);
    }

    /// Reports the embeddings that die with one edge expiration. Must run
    /// while `window` still contains `edge` (before the owner removes it).
    /// A counting runtime reads the edge's ledger charge and searches
    /// nothing; a materialising one enumerates them, unless the charge says
    /// there are none.
    pub fn sweep_expiring(
        &mut self,
        _window: &WindowGraph,
        edge: &TemporalEdge,
        out: &mut Vec<MatchEvent>,
    ) {
        let Some(charge) = self.ledger.remove(&edge.key) else {
            return;
        };
        self.report_expired(Sweep::Edge(edge), charge, out);
    }

    /// The common tail of the two expiry entry points: `charge` embeddings
    /// die with the seeds of `sweep`.
    fn report_expired(&mut self, sweep: Sweep<'_>, charge: u64, out: &mut Vec<MatchEvent>) {
        if !self.cfg.collect_matches {
            self.stats.expired += charge;
            return;
        }
        let before = self.stats.expired;
        self.find_matches_sweep(sweep, MatchKind::Expired, out);
        debug_assert!(
            self.stats.budget_exhausted || self.stats.expired - before == charge,
            "expiry sweep found {} embeddings, ledger charged {charge}",
            self.stats.expired - before
        );
    }

    /// The structure update of one edge expiration. `window` must no longer
    /// contain `edge` (but its pair id must still resolve — the window's
    /// deferred reclamation guarantees this until the next mutation).
    pub fn apply_delete<'a>(
        &mut self,
        window: &WindowGraph,
        edge: &TemporalEdge,
        lookup: impl Fn(EdgeKey) -> &'a TemporalEdge,
    ) {
        self.stats.events += 1;
        let mut deltas = std::mem::take(&mut self.deltas_scratch);
        deltas.clear();
        let t = self.recorder.start();
        self.bank
            .on_delete(&self.q, window, edge, &lookup, &mut deltas);
        self.recorder.stop(Phase::Filter, t);
        let t = self.recorder.start();
        self.dcs.apply(&self.q, window, &lookup, &deltas);
        self.recorder.stop(Phase::DcsApply, t);
        self.deltas_scratch = deltas;
        self.sample_dcs(1);
    }

    /// One same-timestamp arrival batch. `window` must already contain
    /// every batch edge; `edges` must be the complete batch in key order.
    /// Singleton batches dispatch to the serial handlers (identical
    /// semantics, none of the batch bookkeeping).
    pub fn apply_insert_batch<'a>(
        &mut self,
        window: &WindowGraph,
        edges: &[TemporalEdge],
        lookup: impl Fn(EdgeKey) -> &'a TemporalEdge,
        out: &mut Vec<MatchEvent>,
    ) {
        self.stats.events += edges.len() as u64;
        self.stats.batches += 1;
        let mut deltas = std::mem::take(&mut self.deltas_scratch);
        deltas.clear();
        let t = self.recorder.start();
        if let [e] = edges[..] {
            self.bank
                .on_insert(&self.q, window, &e, &lookup, &mut deltas);
        } else {
            self.bank
                .on_insert_batch(&self.q, window, edges, &lookup, &mut deltas);
        }
        self.recorder.stop(Phase::Filter, t);
        let t = self.recorder.start();
        self.dcs.apply(&self.q, window, &lookup, &deltas);
        self.recorder.stop(Phase::DcsApply, t);
        self.deltas_scratch = deltas;
        let sweep = match edges {
            [e] => Sweep::Edge(e),
            _ => Sweep::Batch(edges, true),
        };
        self.find_matches_sweep(sweep, MatchKind::Occurred, out);
        self.sample_dcs(edges.len() as u64);
    }

    /// [`QueryRuntime::sweep_expiring`] for one expiration batch; must run
    /// while `window` still contains every batch edge. Only the batch edges
    /// with a ledger charge seed a search.
    pub fn sweep_expiring_batch(
        &mut self,
        _window: &WindowGraph,
        edges: &[TemporalEdge],
        out: &mut Vec<MatchEvent>,
    ) {
        let mut seeds = std::mem::take(&mut self.dying_seeds);
        seeds.clear();
        let mut charge = 0;
        for e in edges {
            if let Some(c) = self.ledger.remove(&e.key) {
                charge += c;
                seeds.push(*e);
            }
        }
        if !seeds.is_empty() {
            let sweep = match edges {
                [e] => Sweep::Edge(e),
                _ => Sweep::Batch(&seeds, false),
            };
            self.report_expired(sweep, charge, out);
        }
        self.dying_seeds = seeds;
    }

    /// The structure update of one expiration batch. `window` must no
    /// longer contain any batch edge (ids still resolvable, as above).
    pub fn apply_delete_batch<'a>(
        &mut self,
        window: &WindowGraph,
        edges: &[TemporalEdge],
        lookup: impl Fn(EdgeKey) -> &'a TemporalEdge,
    ) {
        self.stats.events += edges.len() as u64;
        self.stats.batches += 1;
        let mut deltas = std::mem::take(&mut self.deltas_scratch);
        deltas.clear();
        let t = self.recorder.start();
        if let [e] = edges[..] {
            self.bank
                .on_delete(&self.q, window, &e, &lookup, &mut deltas);
        } else {
            self.bank
                .on_delete_batch(&self.q, window, edges, &lookup, &mut deltas);
        }
        self.recorder.stop(Phase::Filter, t);
        let t = self.recorder.start();
        self.dcs.apply(&self.q, window, &lookup, &deltas);
        self.recorder.stop(Phase::DcsApply, t);
        self.deltas_scratch = deltas;
        self.sample_dcs(edges.len() as u64);
    }

    /// Samples the post-event DCS sizes, weighted by the number of events
    /// the unit covered (1 serially; the batch length in batched mode, so
    /// averages stay comparable to per-event sampling on uniform streams).
    fn sample_dcs(&mut self, weight: u64) {
        let de = self.bank.num_pairs() as u64;
        let dv = self.dcs.num_candidate_vertices() as u64;
        self.stats.peak_dcs_edges = self.stats.peak_dcs_edges.max(de);
        self.stats.sum_dcs_edges += de * weight;
        self.stats.peak_dcs_vertices = self.stats.peak_dcs_vertices.max(dv);
        self.stats.sum_dcs_vertices += dv * weight;
        self.stats.parallel_filter_rounds = self.bank.parallel_rounds();
        let (ki, kl, kx) = self.bank.kernel_counters();
        self.stats.kernel_invocations = ki;
        self.stats.kernel_lanes = kl;
        self.stats.kernel_early_exits = kx;
    }

    /// Timed shell around the sweep body: one [`Phase::Sweep`] span per
    /// `FindMatches` invocation, occurred and expired alike.
    fn find_matches_sweep(&mut self, sweep: Sweep<'_>, kind: MatchKind, out: &mut Vec<MatchEvent>) {
        let t = self.recorder.start();
        self.find_matches_sweep_inner(sweep, kind, out);
        self.recorder.stop(Phase::Sweep, t);
    }

    fn find_matches_sweep_inner(
        &mut self,
        sweep: Sweep<'_>,
        kind: MatchKind,
        out: &mut Vec<MatchEvent>,
    ) {
        let arrival = match &sweep {
            Sweep::Edge(e) => e.time,
            Sweep::Batch(edges, _) => match edges.first() {
                Some(e) => e.time,
                None => return,
            },
        };
        // A multi-seed sweep fans out across the pool when budgets permit
        // (budgeted runs keep one serial cursor so exhaustion points are
        // exact — see `EngineConfig::budget_limited`).
        if let Sweep::Batch(edges, exclude_later) = sweep {
            if edges.len() > 1 && !self.cfg.budget_limited() {
                if let Some(pool) = self.pool.clone() {
                    self.sweep_parallel(&pool, edges, exclude_later, kind, arrival, out);
                    return;
                }
            }
        }
        let mut scratch = std::mem::take(&mut self.matcher_scratch);
        let (s, found_count) = {
            // Occurrences are charged to the ledger as they are found.
            let ledger = match kind {
                MatchKind::Occurred => Some(&mut self.ledger),
                MatchKind::Expired => None,
            };
            let mut m = Matcher::new(
                &self.q,
                &self.dcs,
                &self.bank,
                &self.cfg,
                self.stats.search_nodes,
                &mut scratch,
                ledger,
            );
            match sweep {
                Sweep::Edge(edge) => {
                    m.run(edge);
                }
                Sweep::Batch(edges, exclude_later) => {
                    m.run_batch(edges, exclude_later);
                }
            }
            (m.stats, m.found_count)
        };
        self.merge_matcher_stats(&s, found_count, kind);
        self.drain_found(&mut scratch.found, kind, arrival, out);
        self.matcher_scratch = scratch;
    }

    /// Fans the per-seed searches of one delta batch out across the pool:
    /// every seed runs on some lane with that lane's private scratch, parks
    /// its results in its own [`SeedSlot`], and lane 0 merges the slots in
    /// seed (= key = serial event) order afterwards — so the reported match
    /// stream is byte-identical to the serial sweep at any pool width.
    fn sweep_parallel(
        &mut self,
        pool: &WorkerPool,
        seeds: &[TemporalEdge],
        exclude_later: bool,
        kind: MatchKind,
        arrival: Ts,
        out: &mut Vec<MatchEvent>,
    ) {
        let width = pool.width();
        let mut lanes = std::mem::take(&mut self.lane_scratch);
        lanes.resize_with(width, MatcherScratch::default);
        let mut slots = std::mem::take(&mut self.seed_slots);
        if slots.len() < seeds.len() {
            slots.resize_with(seeds.len(), SeedSlot::default);
        }
        let (q, dcs, bank, cfg) = (&self.q, &self.dcs, &self.bank, &self.cfg);
        pool.for_each_with(&mut slots[..seeds.len()], &mut lanes, |i, slot, scratch| {
            let ledger = match kind {
                MatchKind::Occurred => Some(&mut slot.charges),
                MatchKind::Expired => None,
            };
            let mut m = Matcher::new(q, dcs, bank, cfg, 0, scratch, ledger);
            m.run_seed(&seeds[i], exclude_later);
            slot.stats = m.stats;
            slot.found_count = m.found_count;
            // Park the seed's embeddings in its slot; the lane keeps the
            // slot's previous (cleared) arena for its next seed.
            slot.found.clear();
            std::mem::swap(&mut slot.found, &mut scratch.found);
        });
        self.lane_scratch = lanes;
        for slot in &mut slots[..seeds.len()] {
            let s = slot.stats;
            self.merge_matcher_stats(&s, slot.found_count, kind);
            self.drain_found(&mut slot.found, kind, arrival, out);
            for (key, n) in slot.charges.drain() {
                *self.ledger.entry(key).or_insert(0) += n;
            }
        }
        self.seed_slots = slots;
        self.stats.parallel_sweeps += 1;
        self.stats.parallel_sweep_seeds += seeds.len() as u64;
    }

    /// Merges one matcher run's counters into the runtime stats.
    fn merge_matcher_stats(&mut self, s: &EngineStats, found_count: u64, kind: MatchKind) {
        self.stats.search_nodes += s.search_nodes;
        self.stats.pruned_case1 += s.pruned_case1;
        self.stats.pruned_case2 += s.pruned_case2;
        self.stats.pruned_case3 += s.pruned_case3;
        self.stats.cloned_case1 += s.cloned_case1;
        self.stats.post_check_rejections += s.post_check_rejections;
        self.stats.budget_exhausted |= s.budget_exhausted;
        match kind {
            MatchKind::Occurred => self.stats.occurred += found_count,
            MatchKind::Expired => self.stats.expired += found_count,
        }
    }

    /// Materializes an arena's embeddings as match events (collect mode)
    /// and empties it. The per-embedding boxes are allocated here, at the
    /// API boundary, and nowhere on the search path.
    fn drain_found(
        &self,
        found: &mut EmbeddingArena,
        kind: MatchKind,
        arrival: Ts,
        out: &mut Vec<MatchEvent>,
    ) {
        if self.cfg.collect_matches && !found.is_empty() {
            let at = match kind {
                MatchKind::Occurred => arrival,
                MatchKind::Expired => arrival.plus(self.delta),
            };
            out.reserve(found.len());
            for i in 0..found.len() {
                out.push(MatchEvent {
                    kind,
                    at,
                    embedding: found.materialize(i),
                });
            }
        }
        found.clear();
    }

    /// Cross-crate invariant audit of every incremental structure against
    /// the current window, returning the violations found (see
    /// [`tcsm_graph::audit`] for the level contract and the catalogue).
    ///
    /// Beyond delegating to [`FilterBank::audit`] and [`Dcs::audit`], this
    /// is where the two cross-crate invariants neither crate can check
    /// alone live:
    ///
    /// * **Deep** — the DCS multiplicity slab must equal a recount of the
    ///   alive window through the bank membership: for every alive edge,
    ///   query edge and valid orientation, the pair contributes one
    ///   multiplicity to its `(pair bucket, edge, tail < head)` slot iff
    ///   its membership bit is set — and is then a record of that slot's
    ///   edge group in the DCS adjacency index.
    /// * **Cheap** — the stats conservation laws: `batches ≤ events`,
    ///   `kernel_early_exits ≤ kernel_invocations`, `peak ≤ sum` for both
    ///   DCS size series, `parallel_sweeps ≤ parallel_sweep_seeds`, and the
    ///   expiry ledger's `Σ charges = base + occurred − expired` (module
    ///   docs) unless a search budget cut occurrence sweeps short. Deep
    ///   also recounts the ledger from the window, entry by entry.
    pub fn audit<'a>(
        &self,
        window: &WindowGraph,
        lookup: impl Fn(EdgeKey) -> &'a TemporalEdge,
        level: crate::audit::AuditLevel,
    ) -> Vec<crate::audit::AuditViolation> {
        use crate::audit::AuditViolation;
        let mut out = Vec::new();
        if !level.enabled() {
            return out;
        }
        let alive: Vec<&TemporalEdge> = window
            .buckets()
            .flat_map(|b| b.iter().map(|r| lookup(r.key)))
            .collect();
        self.bank.audit(&self.q, window, &alive, level, &mut out);
        self.dcs.audit(&self.q, window, level, &mut out);
        if level.deep() {
            let mut expected: tcsm_graph::FxHashMap<(tcsm_graph::PairId, usize, bool), u32> =
                tcsm_graph::FxHashMap::default();
            for sigma in &alive {
                for e in 0..self.q.num_edges() {
                    for o in tcsm_filter::pair::valid_orientations(&self.q, window, e, sigma) {
                        let pair = tcsm_filter::CandPair {
                            qedge: e,
                            key: sigma.key,
                            a_to_src: o,
                        };
                        if !self.bank.contains(pair) {
                            continue;
                        }
                        let v_tail = pair.image_of(&self.q, sigma, self.dag.tail(e));
                        let v_head = pair.image_of(&self.q, sigma, self.dag.head(e));
                        if let Some(pid) = window.pair_id(v_tail, v_head) {
                            *expected.entry((pid, e, v_tail < v_head)).or_insert(0) += 1;
                        }
                        let rec = (sigma.key, sigma.time);
                        if !self.dcs.group_holds(e, v_tail, v_head, rec) {
                            out.push(AuditViolation::new(
                                "dcs-adjacency-index",
                                format!(
                                    "admitted pair (e{e}, {:?}) is not a record of group \
                                     (v{v_tail}, v{v_head})",
                                    sigma.key
                                ),
                            ));
                        }
                    }
                }
            }
            self.dcs.audit_mult(&expected, &mut out);
        }
        // The ledger recount below searches the bank and DCS audited above:
        // it can only judge the ledger when they are sound.
        let structures_sound = out.is_empty();
        let s = &self.stats;
        let mut law = |name: &str, lhs: u64, rhs: u64| {
            if lhs > rhs {
                out.push(AuditViolation::new(
                    "stats-conservation",
                    format!("{name}: {lhs} > {rhs}"),
                ));
            }
        };
        law("batches <= events", s.batches, s.events);
        law(
            "peak_dcs_edges <= sum_dcs_edges",
            s.peak_dcs_edges,
            s.sum_dcs_edges,
        );
        law(
            "peak_dcs_vertices <= sum_dcs_vertices",
            s.peak_dcs_vertices,
            s.sum_dcs_vertices,
        );
        law(
            "parallel_sweeps <= parallel_sweep_seeds",
            s.parallel_sweeps,
            s.parallel_sweep_seeds,
        );
        // The ledger holds exactly the alive embeddings: those alive when
        // it was seeded, plus every occurrence, minus every expiry. (A
        // budget abort leaves occurrences uncharged.)
        if !s.budget_exhausted {
            let charged: u64 = self.ledger.values().sum();
            if charged + s.expired != self.ledger_base + s.occurred {
                out.push(AuditViolation::new(
                    "stats-conservation",
                    format!(
                        "ledger charges {charged} != base {} + occurred {} - expired {}",
                        self.ledger_base, s.occurred, s.expired
                    ),
                ));
            }
            if level.deep() && structures_sound {
                self.audit_ledger(window, &mut out);
            }
        }
        out
    }

    /// Deep half of the ledger audit: the table against a from-scratch
    /// recount of the alive embeddings by minimum edge, entry by entry.
    fn audit_ledger(&self, window: &WindowGraph, out: &mut Vec<crate::audit::AuditViolation>) {
        let recount = self.recount_ledger(window, &mut MatcherScratch::default());
        let mut keys: Vec<EdgeKey> = self.ledger.keys().chain(recount.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let (stored, fresh) = (self.ledger.get(&key), recount.get(&key));
            if stored != fresh || stored == Some(&0) {
                out.push(crate::audit::AuditViolation::new(
                    "expiry-ledger",
                    format!("charge of {key:?}: stored {stored:?}, recounted {fresh:?}"),
                ));
            }
        }
    }

    /// Seeds one ledger corruption ([`crate::TcmEngine::corrupt_ledger`]):
    /// drops the charge of the smallest charged edge that has an alive
    /// parallel edge, re-crediting it to that neighbour when `moved`.
    /// Returns `false` when no charged edge has one.
    pub(crate) fn corrupt_ledger(&mut self, window: &WindowGraph, moved: bool) -> bool {
        let mut parallel: Vec<(EdgeKey, EdgeKey)> = Vec::new();
        for bucket in window.buckets() {
            let keys: Vec<EdgeKey> = bucket.iter().map(|r| r.key).collect();
            for (i, k) in keys.iter().enumerate() {
                if keys.len() > 1 && self.ledger.contains_key(k) {
                    parallel.push((*k, keys[(i + 1) % keys.len()]));
                }
            }
        }
        let Some(&(from, to)) = parallel.iter().min() else {
            return false;
        };
        let charge = self.ledger.remove(&from).expect("picked a charged edge");
        if moved {
            *self.ledger.entry(to).or_insert(0) += charge;
        }
        true
    }

    /// From-scratch consistency audit of every incremental structure — the
    /// historical panicking wrapper over [`QueryRuntime::audit`] at
    /// [`crate::audit::AuditLevel::Deep`] (the differential suites' hook).
    #[doc(hidden)]
    pub fn check_consistency<'a>(
        &self,
        window: &WindowGraph,
        lookup: impl Fn(EdgeKey) -> &'a TemporalEdge,
    ) {
        let out = self.audit(window, lookup, crate::audit::AuditLevel::Deep);
        crate::audit::expect_clean("QueryRuntime", &out);
    }

    /// Corruption-hook access for the negative-test corpus.
    #[doc(hidden)]
    pub fn bank_mut(&mut self) -> &mut FilterBank {
        &mut self.bank
    }

    /// Corruption-hook access for the negative-test corpus.
    #[doc(hidden)]
    pub fn dcs_mut(&mut self) -> &mut Dcs {
        &mut self.dcs
    }

    /// Serializes the runtime's dynamic state: window length, accumulated
    /// stats, the filter bank tables and the DCS slabs. The query, DAG and
    /// configuration are *not* included — a snapshot manifest records them
    /// and restore reconstructs the runtime through [`QueryRuntime::new`]
    /// before overlaying this state — and neither is the expiry ledger,
    /// which restore recounts from the window.
    ///
    /// Must only be called at an event boundary (between
    /// insert/sweep/delete calls), where every scratch transient is dead.
    ///
    /// Phase-timing telemetry is deliberately **not** serialized: snapshot
    /// bytes are identical at every `TCSM_TRACE` level, and a
    /// checkpoint/restore cycle leaves the in-memory recorder untouched.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_i64(self.delta);
        enc.section(|e| self.stats.encode(e));
        enc.section(|e| self.bank.encode_state(e));
        enc.section(|e| self.dcs.encode_state(e));
    }

    /// Overlays serialized state onto a freshly constructed runtime of the
    /// same query, window shape and configuration. The stored window length
    /// must match this runtime's — a snapshot taken under a different δ
    /// describes a different stream and is refused as corrupt. `window` is
    /// the already-restored window the snapshot was taken over: the DCS
    /// rebuilds its (unserialized) adjacency index from it and the restored
    /// bank's membership, and the expiry ledger is recounted over it.
    pub fn restore_state(
        &mut self,
        dec: &mut Decoder<'_>,
        window: &WindowGraph,
    ) -> Result<(), CodecError> {
        let delta = dec.get_i64()?;
        if delta != self.delta {
            return Err(CodecError::Invalid(format!(
                "window length {delta} (expected {})",
                self.delta
            )));
        }
        let mut sec = dec.section()?;
        let stats = EngineStats::decode(&mut sec)?;
        sec.finish()?;
        let mut sec = dec.section()?;
        self.bank.restore_state(&mut sec)?;
        sec.finish()?;
        let mut sec = dec.section()?;
        self.dcs
            .restore_state(&mut sec, &self.q, window, |p| self.bank.contains(p))?;
        sec.finish()?;
        self.stats = stats;
        self.seed_ledger(window);
        Ok(())
    }
}
