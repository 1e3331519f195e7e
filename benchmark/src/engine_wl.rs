//! `filter_bound` and `search_bound`: each roster query on a fresh
//! `TcmEngine`, stepped serially in 64-event ticks over the whole stream.

use crate::common::{Ctx, Latencies, Ledger, Metrics, RunOutput};
use crate::inputs::{self, Golden, Inputs, Roster, RosterQuery};
use crate::json::Json;
use crate::procfs;
use crate::spec::{self, EngineSpec, QueryShape, TICK};
use crate::stats;
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use tcsm_core::{EngineStats, QueryRuntime, TcmEngine};
use tcsm_datasets::QueryGen;
use tcsm_dcs::Dcs;
use tcsm_filter::{DcsDelta, FilterBank, FilterMode};
use tcsm_graph::{EventKind, EventQueue, QueryGraph, TemporalGraph, WindowGraph};
use tcsm_telemetry::{SystemClock, TraceLevel};

/// Full-run counters of `q` alone on `g`, as the roster records them.
pub fn standalone_counters(
    q: &QueryGraph,
    g: &TemporalGraph,
    delta: i64,
    max_total_nodes: u64,
) -> EngineStats {
    let cfg = inputs::engine_config(max_total_nodes, false);
    let mut e = TcmEngine::new(q, g, delta, cfg).expect("valid window");
    *e.run_counting()
}

fn in_band(shape: &QueryShape, s: &EngineStats) -> bool {
    let per_event = |v: u64| v as f64 / s.events.max(1) as f64;
    let within = |v: f64, (lo, hi): (f64, f64)| v >= lo && v <= hi;
    let b = &shape.band;
    !s.budget_exhausted
        && within(per_event(s.search_nodes), b.nodes_per_event)
        && within(per_event(s.kernel_invocations), b.kernel_per_event)
        && within(per_event(s.occurred), b.matches_per_event)
}

/// Scans `QueryGen` seeds in order and keeps the first `want` queries that
/// finish inside the budget and — when `banded` — whose full-run counters
/// fall in the shape's band. Never looks at a clock.
pub fn select_queries(
    shape: &QueryShape,
    g: &TemporalGraph,
    delta: i64,
    want: usize,
    banded: bool,
) -> Vec<RosterQuery> {
    let mut gen = QueryGen::new(g);
    gen.directed = true;
    let mut picked = Vec::new();
    for gen_seed in 0..10_000u64 {
        if picked.len() == want {
            break;
        }
        let size = shape.sizes[gen_seed as usize % shape.sizes.len()];
        let Some(q) = gen.generate(size, shape.density, delta, gen_seed) else {
            continue;
        };
        let s = standalone_counters(&q, g, delta, shape.max_total_nodes);
        let ok = if banded {
            in_band(shape, &s)
        } else {
            !s.budget_exhausted
        };
        if banded {
            eprintln!(
                "  gen_seed {gen_seed:>4} size {size}: nodes/ev {:.3} kernel/ev {:.2} matches/ev {:.3} exhausted {} -> {}",
                s.search_nodes as f64 / s.events.max(1) as f64,
                s.kernel_invocations as f64 / s.events.max(1) as f64,
                s.occurred as f64 / s.events.max(1) as f64,
                s.budget_exhausted,
                if ok { "keep" } else { "skip" },
            );
        }
        if ok {
            picked.push(inputs::roster_query(gen_seed, &q, Golden::of(&s)));
        }
    }
    assert_eq!(picked.len(), want, "QueryGen scan ran out of candidates");
    picked
}

/// Blesses one roster whose golden counts are each query's standalone
/// full-run counts (the engine workloads, and the daemon's, whose queries
/// are resident from the first event). `banded = false` is the smoke run's
/// on-the-spot roster: any query that finishes inside its budget.
pub fn bless(
    name: &str,
    (scale, delta): (f64, i64),
    queries: usize,
    shape: &QueryShape,
    banded: bool,
    ctx: &Ctx,
) -> Result<(), String> {
    let stream_seed = spec::stream_seed(ctx.family);
    // Selection runs on the unpermuted stream; the counters it pins are
    // isomorphism-invariant.
    let g = inputs::build_stream(stream_seed, scale, 0);
    Roster {
        workload: name.to_string(),
        family: ctx.family.to_string(),
        stream_seed,
        queries: select_queries(shape, &g, delta, queries, banded),
    }
    .save(&ctx.rosters)
}

/// One full set-up: roster, stream, and the construction of every engine
/// (each builds its own event queue and filter tables).
fn set_up(sp: &EngineSpec, ctx: &Ctx) -> Result<Inputs, String> {
    let inp = Inputs::load(ctx, sp.name, sp.scale, sp.delta, sp.queries)?;
    for rq in &inp.roster.queries {
        let cfg = inputs::engine_config(sp.shape.max_total_nodes, false);
        std::hint::black_box(
            TcmEngine::new(&rq.query, &inp.g, inp.delta, cfg).expect("valid window"),
        );
    }
    Ok(inp)
}

/// Steps `engine` to the end of the stream (or `max_events`) in ticks,
/// timing each tick.
fn drive_ticks(engine: &mut TcmEngine<'_>, max_events: usize, lat: &mut Latencies) -> (u64, f64) {
    let mut out = Vec::new();
    let mut events = 0usize;
    let start = Instant::now();
    let mut tick_start = start;
    'stream: while events < max_events {
        for _ in 0..TICK.min(max_events - events) {
            if !engine.step(&mut out) {
                break 'stream;
            }
            events += 1;
        }
        let now = Instant::now();
        lat.0.push((now - tick_start).as_nanos() as u64);
        tick_start = now;
    }
    std::hint::black_box(&out);
    (events as u64, start.elapsed().as_secs_f64())
}

pub fn run(sp: &EngineSpec, ctx: &Ctx) -> Result<RunOutput, String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..sp.setup_repeats {
        drop(inputs.take()); // free the previous copy before building the next
        let t = Instant::now();
        inputs = Some(set_up(sp, ctx)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inp = inputs.expect("setup_repeats >= 1");
    let (g, delta, roster) = (&inp.g, inp.delta, &inp.roster);

    let pid = std::process::id();
    let mut lat = Latencies::default();
    lat.0
        .reserve(roster.queries.len() * (2 * g.num_edges() / TICK + 1));
    let (mut events, mut wall_s, mut cpu_s) = (0u64, 0.0f64, 0.0f64);
    let (mut finals, mut per_query_s) = (Vec::new(), Vec::new());
    for rq in &roster.queries {
        let cfg = inputs::engine_config(sp.shape.max_total_nodes, false);
        let mut engine = TcmEngine::new(&rq.query, g, delta, cfg).expect("valid window");
        let cpu0 = procfs::cpu_seconds(pid);
        let (n, secs) = drive_ticks(&mut engine, usize::MAX, &mut lat);
        cpu_s += procfs::cpu_seconds(pid) - cpu0;
        events += n;
        wall_s += secs;
        per_query_s.push(Json::Num(secs));
        finals.push(*engine.stats());
    }
    let peak_rss_mb = procfs::peak_rss_mb(pid);

    let mut ledger = Ledger::default();
    for (rq, s) in roster.queries.iter().zip(&finals) {
        inputs::check_golden(&mut ledger, rq, s);
        inputs::check_drained(&mut ledger, rq, s);
    }
    inp.check_oracle(&mut ledger);

    let l = lat.summary();
    let mut m = Metrics::default();
    m.put("setup_s", "s", stats::median(&setup_s));
    m.put("events_per_s", "1/s", events as f64 / wall_s);
    m.put("cpu_us_per_event", "us", cpu_s * 1e6 / events as f64);
    m.put("step_latency_p50_us", "us", l.p50_us);
    m.put("peak_rss_mb", "MiB", peak_rss_mb);
    let mut notes = l.notes();
    notes.extend([
        ("timed_region_s", wall_s.into()),
        ("per_query_s", Json::Arr(per_query_s)),
        ("events", events.into()),
        ("setup_repeats", (sp.setup_repeats as u64).into()),
        ("scale", inputs::sizing(ctx, sp.scale, sp.delta).0.into()),
        ("delta", (delta as u64).into()),
        ("stream_edges", (g.num_edges() as u64).into()),
        ("stream_seed", roster.stream_seed.into()),
        ("queries", (roster.queries.len() as u64).into()),
        (
            "max_total_nodes",
            Json::Num(sp.shape.max_total_nodes as f64),
        ),
    ]);
    Ok(RunOutput {
        ledger,
        metrics: m,
        notes,
    })
}

/// The harness's re-implementation of `TcmEngine::step`'s loop from public
/// parts, with a span around every call into a layer, plus a *shadow*
/// filter bank and DCS over the same window. The shadows repeat exactly
/// the filter and DCS work the runtime does inside `apply_insert` /
/// `apply_delete`, so runtime minus shadows is the matcher.
fn traced_query(
    tr: &mut Tracer,
    q: &QueryGraph,
    g: &TemporalGraph,
    delta: i64,
    max_total_nodes: u64,
    max_events: usize,
    acc: &mut LayerCounts,
) -> (EngineStats, f64) {
    let names = Names::register(tr);
    let queue = EventQueue::new(g, delta).expect("valid window");
    let mut window = WindowGraph::new(g.labels().to_vec(), true);
    let cfg = inputs::engine_config(max_total_nodes, false);
    let mut rt = QueryRuntime::new(q, &window, delta, cfg, None);
    rt.set_trace(TraceLevel::Off, Arc::new(SystemClock::new()));
    let dag = tcsm_dag::build_best_dag(q);
    let mut bank = FilterBank::new(q, &dag, FilterMode::Tc, &window);
    let mut dcs = Dcs::new(dag, q, &window);
    let mut deltas: Vec<DcsDelta> = Vec::new();
    let mut out = Vec::new();
    let lookup = |k| g.edge(k);

    let start = Instant::now();
    for (i, ev) in queue.events().iter().take(max_events).enumerate() {
        if rt.done() {
            break;
        }
        tr.begin_event(i as u64);
        let t0 = tr.now();
        let edge = *g.edge(ev.edge);
        let t1 = tr.now();
        tr.leaf(names.queue_pop, t0, t1);
        deltas.clear();
        // Whichever of the runtime and its shadows goes second finds the
        // window's data warm in cache; alternating the order keeps that
        // from biasing the runtime-minus-shadows split.
        let runtime_first = i % 2 == 0;
        match ev.kind {
            EventKind::Insert => {
                window.insert(&edge);
                let mut t = tr.now();
                tr.leaf(names.window_insert, t1, t);
                for runtime in [runtime_first, !runtime_first] {
                    if runtime {
                        rt.apply_insert(&window, &edge, lookup, &mut out);
                        t = lap(tr, names.apply_insert, t);
                    } else {
                        bank.on_insert(q, &window, &edge, lookup, &mut deltas);
                        t = lap(tr, names.shadow_on_insert, t);
                        dcs.apply(q, &window, lookup, &deltas);
                        t = lap(tr, names.shadow_dcs, t);
                    }
                }
            }
            EventKind::Delete => {
                rt.sweep_expiring(&window, &edge, &mut out);
                let mut t = lap(tr, names.sweep_expiring, t1);
                window.remove(&edge);
                t = lap(tr, names.window_remove, t);
                // Both before the next window mutation: the drained pair
                // bucket's id resolves for the shadows as it does for `rt`.
                for runtime in [runtime_first, !runtime_first] {
                    if runtime {
                        rt.apply_delete(&window, &edge, lookup);
                        t = lap(tr, names.apply_delete, t);
                    } else {
                        bank.on_delete(q, &window, &edge, lookup, &mut deltas);
                        t = lap(tr, names.shadow_on_delete, t);
                        dcs.apply(q, &window, lookup, &deltas);
                        t = lap(tr, names.shadow_dcs, t);
                    }
                }
            }
        }
        acc.deltas += deltas.len() as u64;
        acc.events += 1;
        acc.alive_edges_sum += window.num_alive_edges() as u64;
        acc.pairs_sum += bank.num_pairs() as u64;
        acc.alive_edges_peak = acc.alive_edges_peak.max(window.num_alive_edges() as u64);
        acc.pair_slab_peak = acc.pair_slab_peak.max(window.pair_slab_len() as u64);
        acc.shadow_diverged += u64::from(
            bank.num_pairs() != rt.dcs_edges() || dcs.num_candidate_vertices() != rt.dcs_vertices(),
        );
        out.clear();
    }
    let wall = start.elapsed().as_secs_f64();
    (*rt.stats(), wall)
}

/// Closes a span that began at `since` now; returns now, the start of the
/// next one (consecutive spans share their boundary timestamp).
#[inline]
fn lap(tr: &mut Tracer, name: usize, since: u64) -> u64 {
    let now = tr.now();
    tr.leaf(name, since, now);
    now
}

struct Names {
    queue_pop: usize,
    window_insert: usize,
    window_remove: usize,
    apply_insert: usize,
    sweep_expiring: usize,
    apply_delete: usize,
    shadow_on_insert: usize,
    shadow_on_delete: usize,
    shadow_dcs: usize,
}

/// Spans that partition the traced loop's wall clock (the shadows are real
/// time in the traced run, so they are top-level too).
const TOP_LEVEL: [&str; 9] = [
    "graph.queue_pop",
    "graph.window_insert",
    "graph.window_remove",
    "core.apply_insert",
    "core.sweep_expiring",
    "core.apply_delete",
    "filter.on_insert",
    "filter.on_delete",
    "dcs.apply",
];

impl Names {
    fn register(tr: &mut Tracer) -> Names {
        let n: Vec<usize> = TOP_LEVEL.iter().map(|n| tr.name(n)).collect();
        Names {
            queue_pop: n[0],
            window_insert: n[1],
            window_remove: n[2],
            apply_insert: n[3],
            sweep_expiring: n[4],
            apply_delete: n[5],
            shadow_on_insert: n[6],
            shadow_on_delete: n[7],
            shadow_dcs: n[8],
        }
    }
}

#[derive(Default)]
struct LayerCounts {
    events: u64,
    deltas: u64,
    alive_edges_sum: u64,
    pairs_sum: u64,
    alive_edges_peak: u64,
    pair_slab_peak: u64,
    /// Events after which the shadow bank's pair count or the shadow DCS's
    /// candidate-vertex count differed from the runtime's own.
    shadow_diverged: u64,
}

/// The layer metrics of [`traced_query`]'s spans and counts.
fn layer_metrics(
    m: &mut Metrics,
    tr: &Tracer,
    acc: &LayerCounts,
    stats: &[EngineStats],
    traced_wall_s: f64,
) {
    let total = |n: &str| tr.agg(n).total_ns as f64;
    let sum = |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let events = acc.events.max(1) as f64;
    m.put("graph.queue_pop_ns", "ns", total("graph.queue_pop"));
    m.put("graph.window_insert_ns", "ns", total("graph.window_insert"));
    m.put("graph.window_remove_ns", "ns", total("graph.window_remove"));
    m.put(
        "graph.window_alive_edges_peak",
        "count",
        acc.alive_edges_peak as f64,
    );
    m.put(
        "graph.pair_slab_len_peak",
        "count",
        acc.pair_slab_peak as f64,
    );
    m.put("filter.on_insert_ns", "ns", total("filter.on_insert"));
    m.put("filter.on_delete_ns", "ns", total("filter.on_delete"));
    m.put(
        "filter.kernel_invocations",
        "count",
        sum(|s| s.kernel_invocations),
    );
    m.put("filter.kernel_lanes", "count", sum(|s| s.kernel_lanes));
    m.put(
        "filter.kernel_early_exits",
        "count",
        sum(|s| s.kernel_early_exits),
    );
    m.put(
        "filter.deltas_per_event",
        "ratio",
        acc.deltas as f64 / events,
    );
    m.put(
        "filter.pairs_per_alive_edge",
        "ratio",
        acc.pairs_sum as f64 / acc.alive_edges_sum.max(1) as f64,
    );
    m.put("dcs.apply_ns", "ns", total("dcs.apply"));
    m.put("dcs.edges_avg", "count", sum(|s| s.sum_dcs_edges) / events);
    m.put(
        "dcs.vertices_avg",
        "count",
        sum(|s| s.sum_dcs_vertices) / events,
    );
    m.put("dcs.deltas_applied", "count", acc.deltas as f64);
    m.put("core.apply_insert_ns", "ns", total("core.apply_insert"));
    m.put("core.sweep_expiring_ns", "ns", total("core.sweep_expiring"));
    m.put("core.apply_delete_ns", "ns", total("core.apply_delete"));
    let runtime =
        total("core.apply_insert") + total("core.sweep_expiring") + total("core.apply_delete");
    let shadows = total("filter.on_insert") + total("filter.on_delete") + total("dcs.apply");
    m.put("core.matcher_self_ns", "ns", runtime - shadows);
    let nodes = sum(|s| s.search_nodes);
    m.put("core.search_nodes", "count", nodes);
    m.put(
        "core.matches_per_node",
        "ratio",
        sum(|s| s.occurred + s.expired) / nodes.max(1.0),
    );
    m.put("core.pruned_case1", "count", sum(|s| s.pruned_case1));
    m.put("core.pruned_case2", "count", sum(|s| s.pruned_case2));
    m.put("core.pruned_case3", "count", sum(|s| s.pruned_case3));
    m.put("core.cloned_case1", "count", sum(|s| s.cloned_case1));
    // The engine's own time is everything but the shadows; the shares below
    // are of that, so they read as shares of an untraced run.
    let graph =
        total("graph.queue_pop") + total("graph.window_insert") + total("graph.window_remove");
    let engine = graph + runtime;
    m.put("bench.share_graph", "share", graph / engine);
    m.put("bench.share_filter_dcs", "share", shadows / engine);
    m.put("bench.share_matcher", "share", (runtime - shadows) / engine);
    let covered = tr.top_level_total_ns(&TOP_LEVEL) as f64;
    m.put(
        "bench.budget_residual_share",
        "share",
        (traced_wall_s * 1e9 - covered) / (traced_wall_s * 1e9),
    );
}

/// Final counters and wall seconds of the first `max_events` events of `q`
/// on a plain engine whose recorder is set to `level`; tick latencies go to
/// `lat`.
fn engine_segment(
    q: &QueryGraph,
    g: &TemporalGraph,
    delta: i64,
    max_total_nodes: u64,
    max_events: usize,
    level: TraceLevel,
    lat: &mut Latencies,
) -> (EngineStats, f64) {
    let cfg = inputs::engine_config(max_total_nodes, false);
    let mut engine = TcmEngine::new(q, g, delta, cfg).expect("valid window");
    engine.set_trace(level, Arc::new(SystemClock::new()));
    let (_, secs) = drive_ticks(&mut engine, max_events, lat);
    (*engine.stats(), secs)
}

pub fn run_traced(sp: &EngineSpec, ctx: &Ctx) -> Result<(RunOutput, Tracer), String> {
    let t = Instant::now();
    let Inputs { g, delta, roster } = Inputs::load(ctx, sp.name, sp.scale, sp.delta, sp.queries)?;
    let generate_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let mut gen = QueryGen::new(&g);
    gen.directed = true;
    std::hint::black_box(gen.generate(sp.shape.sizes[0], sp.shape.density, delta, 0));
    let querygen_ns = t.elapsed().as_nanos() as f64;
    drop(gen);
    let t = Instant::now();
    for rq in &roster.queries {
        let cfg = inputs::engine_config(sp.shape.max_total_nodes, false);
        std::hint::black_box(TcmEngine::new(&rq.query, &g, delta, cfg).expect("valid window"));
    }
    let runtime_new_ns = t.elapsed().as_nanos() as f64;

    let budget = sp.shape.max_total_nodes;
    let segment = ((2 * g.num_edges()) as f64 * spec::TRACE_SHARE) as usize;
    let mut tr = Tracer::new(trace_stride(segment * roster.queries.len()));
    let mut acc = LayerCounts::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut stats = Vec::new();
    let mut ledger = Ledger::default();
    let mut lat = Latencies::default();
    for rq in &roster.queries {
        let (plain, secs) = engine_segment(
            &rq.query,
            &g,
            delta,
            budget,
            segment,
            TraceLevel::Off,
            &mut lat,
        );
        untraced_s += secs;
        let (s, wall) = traced_query(&mut tr, &rq.query, &g, delta, budget, segment, &mut acc);
        traced_s += wall;
        // Same prefix, same query: the harness's loop must count what
        // `TcmEngine`'s counts.
        ledger.check(plain.semantic() == s.semantic(), || {
            format!("query {}: traced loop diverged from TcmEngine", rq.gen_seed)
        });
        // The filter / DCS / matcher split rests on the shadows doing the
        // runtime's own filter and DCS work.
        ledger.check(acc.shadow_diverged == 0, || {
            format!(
                "query {}: the shadow filter bank or DCS diverged from the runtime's",
                rq.gen_seed
            )
        });
        stats.push(s);
    }
    // Telemetry cost, on the first query's first sixteenth: the baseline for
    // leaving `counters` switched on.
    let q0 = &roster.queries[0].query;
    let short = segment / 4;
    let mut unused = Latencies::default();
    let (_, off) = engine_segment(q0, &g, delta, budget, short, TraceLevel::Off, &mut unused);
    let (_, counters) = engine_segment(
        q0,
        &g,
        delta,
        budget,
        short,
        TraceLevel::Counters,
        &mut unused,
    );

    let mut m = Metrics::default();
    m.put("datasets.generate_ns", "ns", generate_ns);
    m.put("datasets.querygen_ns", "ns", querygen_ns);
    m.put("core.runtime_new_ns", "ns", runtime_new_ns);
    layer_metrics(&mut m, &tr, &acc, &stats, traced_s);
    m.put("telemetry.counters_overhead_ratio", "ratio", counters / off);
    let l = lat.summary();
    m.put("bench.step_latency_p50_us", "us", l.p50_us);
    m.put("bench.step_latency_p99_us", "us", l.p99_us);
    m.put("bench.trace_overhead_ratio", "ratio", traced_s / untraced_s);
    m.put("bench.traced_wall_s", "s", traced_s);
    m.put("bench.solved_share", "share", ledger.solved_share());
    Ok((
        RunOutput {
            ledger,
            metrics: m,
            notes: vec![
                ("traced_events_per_query", (segment as u64).into()),
                ("traced_wall_s", traced_s.into()),
                ("untraced_wall_s", untraced_s.into()),
            ],
        },
        tr,
    ))
}

/// Keeps the spans of every 64th event, or of fewer when that would store
/// more than ~2k events' worth.
pub fn trace_stride(total_events: usize) -> u64 {
    let per_64 = total_events / 64;
    64 * (per_64 / 2_048).max(1) as u64
}
