//! `service_churn`: one `MatchService` with resident queries retired and
//! reserve queries admitted mid-stream on a fixed schedule, plus one
//! checkpoint — many small runtimes over shared windows, and the
//! from-scratch `rebuild_from_window` admission path.

use crate::common::{Ctx, Latencies, Ledger, Metrics, RunOutput, TempDir};
use crate::engine_wl;
use crate::inputs::{self, Golden, Inputs, Roster};
use crate::procfs;
use crate::spec::{self, ServiceSpec, TICK};
use crate::stats;
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tcsm_core::{EngineStats, MatchEvent, QueryRuntime, TcmEngine};
use tcsm_filter::{FilterBank, FilterMode};
use tcsm_graph::{EventKind, EventQueue, TemporalGraph, WindowGraph};
use tcsm_service::{
    CountingSink, MatchCounts, MatchService, QueryId, RecoveryPolicy, ResultSink, ServiceConfig,
    ShardPolicy, SinkClosed,
};

pub fn service_config(shards: usize, threads: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        policy: ShardPolicy::Spread,
        threads,
        batching: false,
        directed: true,
    }
}

/// A `CountingSink` that also times its own `deliver` calls — the traced
/// run's view of the sink layer from inside the service's step.
struct TimedSink {
    inner: CountingSink,
    calls: Arc<AtomicU64>,
    nanos: Arc<AtomicU64>,
}

impl ResultSink for TimedSink {
    fn collect_matches(&self) -> bool {
        self.inner.collect_matches()
    }

    fn deliver(
        &mut self,
        qid: QueryId,
        events: &mut Vec<MatchEvent>,
        occurred: u64,
        expired: u64,
    ) -> Result<(), SinkClosed> {
        let t = Instant::now();
        let r = self.inner.deliver(qid, events, occurred, expired);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

#[derive(Default)]
struct SinkClock {
    calls: Arc<AtomicU64>,
    nanos: Arc<AtomicU64>,
}

struct Resident {
    id: QueryId,
    roster_idx: usize,
    counts: MatchCounts,
    admitted_at: usize,
}

/// The residency bookkeeping of one run: who is resident (oldest first),
/// which reserve is next, and every retired query's final counters.
struct Churn<'r> {
    roster: &'r Roster,
    max_total_nodes: u64,
    fifo: VecDeque<Resident>,
    next_reserve: usize,
    /// Final `(stats, sink counts)` by roster index, filled at retirement
    /// or at the end of the stream.
    finals: Vec<Option<(EngineStats, u64, u64)>>,
    sink_clock: Option<SinkClock>,
}

impl<'r> Churn<'r> {
    fn admit(&mut self, svc: &mut MatchService<'_>, roster_idx: usize) {
        let (counting, counts) = CountingSink::new();
        let sink: Box<dyn ResultSink> = match &self.sink_clock {
            Some(c) => Box::new(TimedSink {
                inner: counting,
                calls: Arc::clone(&c.calls),
                nanos: Arc::clone(&c.nanos),
            }),
            None => Box::new(counting),
        };
        let cfg = inputs::engine_config(self.max_total_nodes, false);
        let admitted_at = svc.events_processed();
        let id = svc.add_query(&self.roster.queries[roster_idx].query, cfg, sink);
        self.fifo.push_back(Resident {
            id,
            roster_idx,
            counts,
            admitted_at,
        });
    }

    fn retire_oldest(&mut self, svc: &mut MatchService<'_>) -> bool {
        let r = self.fifo.pop_front().expect("a resident to retire");
        match svc.remove_query(r.id) {
            Some(stats) => {
                self.finals[r.roster_idx] = Some((stats, r.counts.occurred(), r.counts.expired()));
                true
            }
            None => false,
        }
    }

    fn finish(&mut self, svc: &MatchService<'_>) {
        for r in &self.fifo {
            let stats = *svc.query_stats(r.id).expect("resident has stats");
            self.finals[r.roster_idx] = Some((stats, r.counts.occurred(), r.counts.expired()));
        }
    }
}

/// Set-up of one run: the service and its initial residents (admitted on
/// the empty window, so no rebuild yet).
fn build_service<'g, 'r>(
    sp: &ServiceSpec,
    g: &'g TemporalGraph,
    delta: i64,
    threads: usize,
    roster: &'r Roster,
    timed_sinks: bool,
) -> (MatchService<'g>, Churn<'r>) {
    let mut svc =
        MatchService::new(g, delta, service_config(sp.shards, threads)).expect("valid window");
    let mut churn = Churn {
        roster,
        max_total_nodes: sp.shape.max_total_nodes,
        fifo: VecDeque::new(),
        next_reserve: sp.residents,
        finals: vec![None; roster.queries.len()],
        sink_clock: timed_sinks.then(SinkClock::default),
    };
    for i in 0..sp.residents {
        churn.admit(&mut svc, i);
    }
    (svc, churn)
}

/// Event indices (tick-aligned) of the churn points and the checkpoint.
fn schedule(sp: &ServiceSpec, total_events: usize, horizon: usize) -> (Vec<usize>, usize) {
    let align = |e: usize| e / TICK * TICK;
    let churns = (1..=sp.churns)
        .map(|k| align(k * total_events / (sp.churns + 1)))
        .filter(|&e| e < horizon)
        .collect();
    (churns, align((horizon as f64 * sp.checkpoint_at) as usize))
}

/// A window the harness keeps in lockstep with the service's (which are
/// private), so the traced run can time `rebuild_from_window` at each
/// admission point from outside.
struct Mirror {
    queue: EventQueue,
    window: WindowGraph,
    cursor: usize,
}

impl Mirror {
    fn new(g: &TemporalGraph, delta: i64) -> Mirror {
        Mirror {
            queue: EventQueue::new(g, delta).expect("valid window"),
            window: WindowGraph::new(g.labels().to_vec(), true),
            cursor: 0,
        }
    }

    fn advance_to(&mut self, g: &TemporalGraph, upto: usize) {
        for ev in &self.queue.events()[self.cursor..upto] {
            match ev.kind {
                EventKind::Insert => self.window.insert(g.edge(ev.edge)),
                EventKind::Delete => self.window.remove(g.edge(ev.edge)),
            }
        }
        self.cursor = upto;
    }
}

struct Driven {
    events: u64,
    wall_s: f64,
    cpu_s: f64,
    step_lat: Latencies,
    admit_lat: Latencies,
    admissions_ok: u64,
    admissions: u64,
    checkpoint_ok: bool,
    checkpoint_bytes: u64,
    /// Per-resident stats at the checkpoint, for the restore comparison.
    at_checkpoint: Vec<(QueryId, EngineStats)>,
}

/// The timed region: steps the service to `horizon` in ticks, churning and
/// checkpointing on schedule. With a tracer, every service call gets a span
/// and the mirror window shadows each admission's filter rebuild.
#[allow(clippy::too_many_arguments)]
fn drive(
    sp: &ServiceSpec,
    g: &TemporalGraph,
    svc: &mut MatchService<'_>,
    churn: &mut Churn<'_>,
    horizon: usize,
    checkpoint_dir: &Path,
    mut tr: Option<&mut Tracer>,
    mut mirror: Option<&mut Mirror>,
) -> Driven {
    let total_events = 2 * g.num_edges();
    let (churn_points, checkpoint_at) = schedule(sp, total_events, horizon);
    let mut next_churn = churn_points.iter().copied().peekable();
    let mut d = Driven {
        events: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        step_lat: Latencies::default(),
        admit_lat: Latencies::default(),
        admissions_ok: 0,
        admissions: 0,
        checkpoint_ok: false,
        checkpoint_bytes: 0,
        at_checkpoint: Vec::new(),
    };
    let names = tr.as_deref_mut().map(|tr| {
        [
            "service.step",
            "service.remove_query",
            "service.add_query",
            "service.checkpoint",
            "bench.shadow_setup",
            "filter.rebuild_from_window",
        ]
        .map(|n| tr.name(n))
    });
    let pid = std::process::id();
    let cpu0 = procfs::cpu_seconds(pid);
    let start = Instant::now();
    let mut cursor = 0usize;
    while cursor < horizon {
        if let Some(tr) = tr.as_deref_mut() {
            tr.begin_event(cursor as u64);
        }
        if next_churn.peek() == Some(&cursor) {
            next_churn.next();
            let t0 = Instant::now();
            let retired = churn.retire_oldest(svc);
            let t1 = Instant::now();
            let reserve = churn.next_reserve;
            churn.next_reserve += 1;
            churn.admit(svc, reserve);
            let t2 = Instant::now();
            d.admissions += 1;
            d.admissions_ok += u64::from(retired && svc.stats().resident_queries == sp.residents);
            d.admit_lat.0.push((t2 - t1).as_nanos() as u64);
            if let (Some(tr), Some(n), Some(m)) = (tr.as_deref_mut(), &names, mirror.as_deref_mut())
            {
                tr.leaf(n[1], tr.at(t0), tr.at(t1));
                tr.leaf(n[2], tr.at(t1), tr.at(t2));
                // The same rebuild `add_query` just did inside the service,
                // repeated on the mirror window where it can be timed alone.
                m.advance_to(g, cursor);
                let q = &churn.roster.queries[reserve].query;
                let dag = tcsm_dag::build_best_dag(q);
                let mut bank = FilterBank::new(q, &dag, FilterMode::Tc, &m.window);
                let mut deltas = Vec::new();
                let t3 = Instant::now();
                tr.leaf(n[4], tr.at(t2), tr.at(t3));
                bank.rebuild_from_window(
                    q,
                    &m.window,
                    m.window
                        .buckets()
                        .flat_map(|b| b.iter().map(|r| g.edge(r.key))),
                    &mut deltas,
                );
                tr.leaf(n[5], tr.at(t3), tr.now());
                std::hint::black_box(&deltas);
            }
        }
        if cursor == checkpoint_at {
            let t0 = Instant::now();
            d.checkpoint_ok = svc.checkpoint(checkpoint_dir).is_ok();
            if let (Some(tr), Some(n)) = (tr.as_deref_mut(), &names) {
                tr.leaf(n[3], tr.at(t0), tr.now());
            }
            d.checkpoint_bytes = dir_bytes(checkpoint_dir);
            d.at_checkpoint = churn
                .fifo
                .iter()
                .map(|r| (r.id, *svc.query_stats(r.id).expect("resident has stats")))
                .collect();
        }
        let t0 = Instant::now();
        let mut taken = 0;
        while taken < TICK.min(horizon - cursor) && svc.step() {
            taken += 1;
        }
        let t1 = Instant::now();
        d.step_lat.0.push((t1 - t0).as_nanos() as u64);
        if let (Some(tr), Some(n)) = (tr.as_deref_mut(), &names) {
            tr.leaf(n[0], tr.at(t0), tr.at(t1));
        }
        if taken == 0 {
            break;
        }
        cursor += taken;
        d.events += taken as u64;
    }
    d.wall_s = start.elapsed().as_secs_f64();
    d.cpu_s = procfs::cpu_seconds(pid) - cpu0;
    d
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Blesses the roster: standalone-selected queries, then one in-service
/// run to record each query's counts over its own residency.
pub fn bless(sp: &ServiceSpec, banded: bool, ctx: &Ctx) -> Result<(), String> {
    let (scale, delta) = inputs::sizing(ctx, sp.scale, sp.delta);
    let stream_seed = spec::stream_seed(ctx.family);
    let g = inputs::build_stream(stream_seed, scale, 0);
    let want = sp.residents + sp.churns;
    let mut roster = Roster {
        workload: "service_churn".to_string(),
        family: ctx.family.to_string(),
        stream_seed,
        queries: engine_wl::select_queries(&sp.shape, &g, delta, want, banded),
    };
    let tmp = TempDir::new(&ctx.bench_dir, "bless");
    let finals = {
        let (mut svc, mut churn) = build_service(sp, &g, delta, 0, &roster, false);
        drive(
            sp,
            &g,
            &mut svc,
            &mut churn,
            2 * g.num_edges(),
            &tmp.0,
            None,
            None,
        );
        churn.finish(&svc);
        churn.finals
    };
    for (rq, f) in roster.queries.iter_mut().zip(finals) {
        let (s, _, _) = f.expect("every roster query was resident");
        if s.budget_exhausted {
            return Err(format!(
                "query {} exhausts its budget in service",
                rq.gen_seed
            ));
        }
        rq.golden = Golden::of(&s);
    }
    roster.save(&ctx.rosters)
}

fn load_inputs(sp: &ServiceSpec, ctx: &Ctx) -> Result<Inputs, String> {
    let queries = sp.residents + sp.churns;
    Inputs::load(ctx, "service_churn", sp.scale, sp.delta, queries)
}

/// Does survivor `r`'s in-service count equal a standalone `TcmEngine`'s
/// over the same suffix? The standalone engine runs on the stream cut just
/// before the oldest edge alive at the admission point — its window is then
/// the service's from that point on — and its counters up to that point are
/// subtracted.
fn survivor_matches_standalone(
    g: &TemporalGraph,
    queue: &EventQueue,
    delta: i64,
    max_total_nodes: u64,
    roster: &Roster,
    r: &Resident,
    got: &EngineStats,
) -> bool {
    let before = &queue.events()[..r.admitted_at];
    let deletes = before
        .iter()
        .filter(|e| e.kind == EventKind::Delete)
        .count();
    // Lifetimes are uniform and timestamps distinct, so edges expire in key
    // order: the alive edges at the admission point are keys `deletes..`.
    let alive = before.len() - 2 * deletes;
    let suffix = inputs::suffix_stream(g, deletes);
    let cfg = inputs::engine_config(max_total_nodes, false);
    let q = &roster.queries[r.roster_idx].query;
    let mut engine = TcmEngine::new(q, &suffix, delta, cfg).expect("valid window");
    let mut out = Vec::new();
    for _ in 0..alive {
        engine.step(&mut out);
    }
    let at_admission = *engine.stats();
    let end = *engine.run_counting();
    (
        end.occurred - at_admission.occurred,
        end.expired - at_admission.expired,
    ) == (got.occurred, got.expired)
}

fn check_run(
    ledger: &mut Ledger,
    sp: &ServiceSpec,
    inp: &Inputs,
    churn: &Churn<'_>,
    d: &Driven,
    full_stream: bool,
) {
    ledger.attempted += d.admissions;
    ledger.failed += d.admissions - d.admissions_ok;
    ledger.check(d.checkpoint_ok, || "checkpoint failed".to_string());
    for (rq, f) in inp.roster.queries.iter().zip(&churn.finals) {
        let Some((s, sink_occ, sink_exp)) = f else {
            continue; // a reserve the shortened (traced) run never reached
        };
        ledger.check((s.occurred, s.expired) == (*sink_occ, *sink_exp), || {
            format!(
                "query {}: sink counts differ from the service's stats",
                rq.gen_seed
            )
        });
        if full_stream {
            inputs::check_golden(ledger, rq, s);
        } else {
            ledger.check(!s.budget_exhausted, || {
                format!("query {} exhausted its search budget", rq.gen_seed)
            });
        }
    }
    if full_stream {
        let queue = EventQueue::new(&inp.g, inp.delta).expect("valid window");
        for r in &churn.fifo {
            let (got, _, _) = churn.finals[r.roster_idx].expect("survivors have finals");
            let budget = sp.shape.max_total_nodes;
            ledger.check(
                survivor_matches_standalone(
                    &inp.g,
                    &queue,
                    inp.delta,
                    budget,
                    &inp.roster,
                    r,
                    &got,
                ),
                || {
                    format!(
                        "survivor {} differs from a standalone engine over its suffix",
                        inp.roster.queries[r.roster_idx].gen_seed
                    )
                },
            );
        }
    }
    inp.check_oracle(ledger);
}

pub fn run(sp: &ServiceSpec, ctx: &Ctx) -> Result<RunOutput, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..sp.setup_repeats {
        drop(built.take());
        let t = Instant::now();
        let inp = built.insert(load_inputs(sp, ctx)?);
        std::hint::black_box(build_service(sp, &inp.g, inp.delta, 0, &inp.roster, false));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inp = built.expect("setup_repeats >= 1");
    let (mut svc, mut churn) = build_service(sp, &inp.g, inp.delta, 0, &inp.roster, false);
    let tmp = TempDir::new(&ctx.bench_dir, "churn");
    let horizon = 2 * inp.g.num_edges();
    let mut d = drive(
        sp, &inp.g, &mut svc, &mut churn, horizon, &tmp.0, None, None,
    );
    let peak_rss_mb = procfs::peak_rss_mb(std::process::id());
    churn.finish(&svc);

    let mut ledger = Ledger::default();
    check_run(&mut ledger, sp, &inp, &churn, &d, true);

    let step = d.step_lat.summary();
    let admit = d.admit_lat.summary();
    let mut m = Metrics::default();
    m.put("setup_s", "s", stats::median(&setup_s));
    m.put("events_per_s", "1/s", d.events as f64 / d.wall_s);
    m.put("cpu_us_per_event", "us", d.cpu_s * 1e6 / d.events as f64);
    m.put("step_latency_p50_us", "us", step.p50_us);
    m.put("peak_rss_mb", "MiB", peak_rss_mb);
    let mut notes = step.notes();
    notes.extend([
        ("timed_region_s", d.wall_s.into()),
        ("events", d.events.into()),
        ("setup_repeats", (sp.setup_repeats as u64).into()),
        ("admit_latency_p50_us", admit.p50_us.into()),
        ("admit_latency_samples", (admit.count as u64).into()),
        ("checkpoint_bytes", d.checkpoint_bytes.into()),
        ("delta", (inp.delta as u64).into()),
        ("stream_edges", (inp.g.num_edges() as u64).into()),
        ("shards", (sp.shards as u64).into()),
        ("residents", (sp.residents as u64).into()),
        ("churns", (sp.churns as u64).into()),
    ]);
    Ok(RunOutput {
        ledger,
        metrics: m,
        notes,
    })
}

/// Wall nanoseconds of stepping a fresh service with the initial residents
/// over the first `events` events.
fn service_segment(sp: &ServiceSpec, inp: &Inputs, threads: usize, events: usize) -> f64 {
    let (mut svc, _churn) = build_service(sp, &inp.g, inp.delta, threads, &inp.roster, false);
    let t = Instant::now();
    for _ in 0..events {
        svc.step();
    }
    t.elapsed().as_nanos() as f64
}

/// The same residents as bare `QueryRuntime`s over one harness-owned
/// window: what the work costs without the service around it.
fn bare_segment(sp: &ServiceSpec, inp: &Inputs, events: usize) -> f64 {
    let g = &inp.g;
    let queue = EventQueue::new(g, inp.delta).expect("valid window");
    let mut window = WindowGraph::new(g.labels().to_vec(), true);
    let cfg = inputs::engine_config(sp.shape.max_total_nodes, false);
    let mut rts: Vec<QueryRuntime> = inp.roster.queries[..sp.residents]
        .iter()
        .map(|rq| QueryRuntime::new(&rq.query, &window, inp.delta, cfg, None))
        .collect();
    let mut out = Vec::new();
    let t = Instant::now();
    for ev in &queue.events()[..events] {
        let edge = g.edge(ev.edge);
        match ev.kind {
            EventKind::Insert => {
                window.insert(edge);
                for rt in &mut rts {
                    rt.apply_insert(&window, edge, |k| g.edge(k), &mut out);
                }
            }
            EventKind::Delete => {
                for rt in &mut rts {
                    rt.sweep_expiring(&window, edge, &mut out);
                }
                window.remove(edge);
                for rt in &mut rts {
                    rt.apply_delete(&window, edge, |k| g.edge(k));
                }
            }
        }
    }
    std::hint::black_box(&out);
    t.elapsed().as_nanos() as f64
}

pub fn run_traced(sp: &ServiceSpec, ctx: &Ctx) -> Result<(RunOutput, Tracer), String> {
    let t = Instant::now();
    let inp = load_inputs(sp, ctx)?;
    let generate_ns = t.elapsed().as_nanos() as f64;
    let total_events = 2 * inp.g.num_edges();
    let horizon = (total_events as f64 * spec::TRACE_SHARE) as usize / TICK * TICK;
    let tmp = TempDir::new(&ctx.bench_dir, "churn-trace");

    // Untraced pass over the same segment, for the tracing overhead.
    let untraced = {
        let (mut svc, mut churn) = build_service(sp, &inp.g, inp.delta, 0, &inp.roster, false);
        drive(
            sp, &inp.g, &mut svc, &mut churn, horizon, &tmp.0, None, None,
        )
    };
    let untraced_s = untraced.wall_s;

    let mut tr = Tracer::new(engine_wl::trace_stride(horizon));
    let t = Instant::now();
    let (mut svc, mut churn) = build_service(sp, &inp.g, inp.delta, 0, &inp.roster, true);
    let runtime_new_ns = t.elapsed().as_nanos() as f64;
    let mut mirror = Mirror::new(&inp.g, inp.delta);
    let d = drive(
        sp,
        &inp.g,
        &mut svc,
        &mut churn,
        horizon,
        &tmp.0,
        Some(&mut tr),
        Some(&mut mirror),
    );
    churn.finish(&svc);
    let svc_stats = svc.stats();

    let mut ledger = Ledger::default();
    check_run(&mut ledger, sp, &inp, &churn, &d, false);

    // Restore the mid-run checkpoint: same cursor, same residents, same
    // per-query counters as when it was taken.
    let restore_name = tr.name("service.restore");
    let t0 = tr.now();
    let restored = MatchService::restore(&inp.g, &tmp.0, RecoveryPolicy::Strict, |_| {
        Box::new(CountingSink::new().0)
    });
    tr.leaf(restore_name, t0, tr.now());
    let (_, checkpoint_at) = schedule(sp, total_events, horizon);
    ledger.check(
        restored.as_ref().is_ok_and(|r| {
            r.events_processed() == checkpoint_at
                && d.at_checkpoint
                    .iter()
                    .all(|(id, s)| r.query_stats(*id).is_some_and(|got| got == s))
        }),
        || "restored service differs from the checkpointed one".to_string(),
    );
    drop(restored);

    // Service vs bare runtimes, and the threads = 2 record, on the segment
    // before the first churn (the initial residents throughout).
    let first_churn = total_events / (sp.churns + 1) / TICK * TICK;
    let t0_ns = service_segment(sp, &inp, 0, first_churn);
    let t2_ns = service_segment(sp, &inp, 2, first_churn);
    let bare_ns = bare_segment(sp, &inp, first_churn);

    let sink = churn
        .sink_clock
        .as_ref()
        .expect("traced run times its sinks");
    let finals: Vec<EngineStats> = churn.finals.iter().flatten().map(|f| f.0).collect();
    let sum = |f: fn(&EngineStats) -> u64| finals.iter().map(f).sum::<u64>() as f64;
    let total = |n: &str| tr.agg(n).total_ns as f64;
    let mut m = Metrics::default();
    m.put("datasets.generate_ns", "ns", generate_ns);
    m.put("core.runtime_new_ns", "ns", runtime_new_ns);
    m.put("service.step_ns", "ns", total("service.step"));
    m.put(
        "service.sink_deliver_ns",
        "ns",
        sink.nanos.load(Ordering::Relaxed) as f64,
    );
    m.put(
        "service.sink_deliveries",
        "count",
        sink.calls.load(Ordering::Relaxed) as f64,
    );
    m.put("service.add_query_ns", "ns", total("service.add_query"));
    m.put(
        "service.remove_query_ns",
        "ns",
        total("service.remove_query"),
    );
    m.put("service.checkpoint_ns", "ns", total("service.checkpoint"));
    m.put("service.checkpoint_bytes", "B", d.checkpoint_bytes as f64);
    m.put("service.restore_ns", "ns", total("service.restore"));
    m.put("service.overhead_share", "share", (t0_ns - bare_ns) / t0_ns);
    m.put("service.step_ns_t0", "ns", t0_ns);
    m.put("service.step_ns_t2", "ns", t2_ns);
    let mut admit_lat = d.admit_lat;
    if admit_lat.0.len() >= 20 {
        m.put(
            "service.admit_latency_p50_us",
            "us",
            admit_lat.summary().p50_us,
        );
    } else if !admit_lat.0.is_empty() {
        admit_lat.0.sort_unstable();
        let p50 = stats::percentile_sorted(&admit_lat.0, 50.0);
        m.put("service.admit_latency_p50_us", "us", p50 as f64 / 1e3);
    }
    m.put(
        "filter.rebuild_from_window_ns",
        "ns",
        total("filter.rebuild_from_window"),
    );
    m.put(
        "filter.kernel_invocations",
        "count",
        svc_stats.kernel_invocations as f64,
    );
    m.put(
        "filter.kernel_lanes",
        "count",
        svc_stats.kernel_lanes as f64,
    );
    m.put(
        "filter.kernel_early_exits",
        "count",
        svc_stats.kernel_early_exits as f64,
    );
    m.put("core.search_nodes", "count", sum(|s| s.search_nodes));
    m.put(
        "core.matches_per_node",
        "ratio",
        sum(|s| s.occurred + s.expired) / sum(|s| s.search_nodes).max(1.0),
    );
    m.put("core.pruned_case1", "count", sum(|s| s.pruned_case1));
    m.put("core.pruned_case2", "count", sum(|s| s.pruned_case2));
    m.put("core.pruned_case3", "count", sum(|s| s.pruned_case3));
    m.put("core.cloned_case1", "count", sum(|s| s.cloned_case1));
    let covered = tr.top_level_total_ns(&[
        "service.step",
        "service.remove_query",
        "service.add_query",
        "service.checkpoint",
        "bench.shadow_setup",
        "filter.rebuild_from_window",
    ]) as f64;
    m.put(
        "bench.budget_residual_share",
        "share",
        (d.wall_s * 1e9 - covered) / (d.wall_s * 1e9),
    );
    let mut step_lat = untraced.step_lat;
    let l = step_lat.summary();
    m.put("bench.step_latency_p50_us", "us", l.p50_us);
    m.put("bench.step_latency_p99_us", "us", l.p99_us);
    m.put("bench.trace_overhead_ratio", "ratio", d.wall_s / untraced_s);
    m.put("bench.traced_wall_s", "s", d.wall_s);
    m.put("bench.solved_share", "share", ledger.solved_share());
    Ok((
        RunOutput {
            ledger,
            metrics: m,
            notes: vec![
                ("traced_events", (horizon as u64).into()),
                ("traced_wall_s", d.wall_s.into()),
                ("untraced_wall_s", untraced_s.into()),
                ("segment_events", (first_churn as u64).into()),
            ],
        },
        tr,
    ))
}
