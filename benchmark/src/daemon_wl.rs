//! `daemon_open_loop`: the real `tcsm-serviced` process on loopback — the
//! only workload with wire encode/decode, `SocketSink`, socket writes and
//! the service loop's channel on the path.
//!
//! Connection A admits half the roster and drives the stream; connection B
//! admits the other half and is drained by a second thread. Phase A is a
//! closed loop (`events_per_s`); phase B is an open loop at a fixed rate,
//! each step timed from its *due* time to its `Stepped` response, which
//! the server writes after that step's deliveries (the latency metrics).

use crate::common::{Ctx, Latencies, Ledger, Metrics, RunOutput, TempDir};
use crate::inputs::{self, Inputs};
use crate::procfs::{self, Daemon};
use crate::sched::{self, Schedule, WallClock};
use crate::spec::{self, DaemonSpec, TICK};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;
use tcsm_core::{EngineStats, MatchKind};
use tcsm_graph::codec::{frame_kind, open_frame, read_wire_frame, write_wire_frame};
use tcsm_graph::io::{parse_temporal_graph, write_temporal_graph};
use tcsm_server::wire::{
    Delivery, Request, Response, WireFault, KIND_DELIVERY, KIND_ERROR, KIND_RESPONSE,
    MAX_STREAM_FRAME,
};
use tcsm_service::{DiscardSink, MatchService};

/// What one connection received for one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Received {
    occurred: u64,
    expired: u64,
    /// Materialised match events the frames declared.
    events: u64,
}

#[derive(Default)]
struct Tally {
    per_query: BTreeMap<u32, Received>,
    deliveries: u64,
    bytes: u64,
    /// Frames whose full decode disagreed with their header.
    inconsistent: u64,
    /// Full decodes (every `SAMPLE_EVERY`-th delivery): time, bytes, and —
    /// in the traced run — the decoded deliveries for the encode replay.
    decode_ns: u64,
    sample_bytes: u64,
    sample: Vec<Delivery>,
    keep_sample: bool,
}

const SAMPLE_EVERY: u64 = 16;

impl Tally {
    /// Tallies one delivery frame from its header (checksum verified, counts
    /// read, events not materialised): a subscriber that decoded every
    /// embedding would spend more CPU than the daemon spends producing them,
    /// on a box where the two share two cores. Every sixteenth frame is
    /// decoded in full and must agree with its header.
    fn delivery(&mut self, frame: &[u8]) -> Result<(), String> {
        let mut dec =
            open_frame(frame, KIND_DELIVERY).map_err(|e| format!("bad delivery frame: {e}"))?;
        let header = (|| {
            let qid = dec.get_u32()?;
            Ok((
                qid,
                dec.get_u64()?,
                dec.get_u64()?,
                dec.get_count(2)? as u64,
            ))
        })();
        let (qid, occurred, expired, events) =
            header.map_err(|e: tcsm_graph::CodecError| format!("bad delivery header: {e}"))?;
        let r = self.per_query.entry(qid).or_default();
        r.occurred += occurred;
        r.expired += expired;
        r.events += events;
        self.deliveries += 1;
        self.bytes += frame.len() as u64;
        if self.deliveries.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            let d = Delivery::decode(frame).map_err(|e| format!("bad delivery frame: {e}"))?;
            self.decode_ns += t.elapsed().as_nanos() as u64;
            self.sample_bytes += frame.len() as u64;
            let occ = d
                .events
                .iter()
                .filter(|m| m.kind == MatchKind::Occurred)
                .count() as u64;
            let agrees = (d.qid, d.occurred, d.expired) == (qid, occurred, expired)
                && (occ, d.events.len() as u64 - occ) == (occurred, expired);
            self.inconsistent += u64::from(!agrees);
            if self.keep_sample {
                self.sample.push(d);
            }
        }
        Ok(())
    }
}

/// The harness's own blocking client: `tcsm_server::Client` buffers every
/// delivered event per query, which a multi-million-match stream cannot
/// afford, and hides the frame boundaries the traced run times.
struct Conn {
    stream: TcpStream,
    seq: u64,
    tally: Tally,
    /// Encoded request frames of the traced run, for the offline decode
    /// replay.
    sent_frames: Vec<Vec<u8>>,
    keep_frames: bool,
}

struct CallTimes {
    start: Instant,
    encoded: Instant,
    written: Instant,
    response_read: Instant,
    done: Instant,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            seq: 0,
            tally: Tally::default(),
            sent_frames: Vec::new(),
            keep_frames: false,
        })
    }

    /// Sends `req` and reads frames until its response; deliveries on the
    /// way are tallied.
    fn call(&mut self, req: &Request) -> Result<(Response, CallTimes), String> {
        self.seq += 1;
        let start = Instant::now();
        let frame = req.encode(self.seq);
        let encoded = Instant::now();
        write_wire_frame(&mut self.stream, &frame).map_err(|e| format!("write: {e}"))?;
        let written = Instant::now();
        if self.keep_frames {
            self.sent_frames.push(frame);
        }
        loop {
            let bytes = self.read_frame()?.ok_or("daemon closed the connection")?;
            match frame_kind(&bytes).map_err(|e| e.to_string())? {
                KIND_DELIVERY => self.tally.delivery(&bytes)?,
                KIND_RESPONSE => {
                    let response_read = Instant::now();
                    let (seq, resp) = Response::decode(&bytes).map_err(|e| e.to_string())?;
                    if seq != self.seq {
                        return Err(format!("response for seq {seq}, expected {}", self.seq));
                    }
                    let times = CallTimes {
                        start,
                        encoded,
                        written,
                        response_read,
                        done: Instant::now(),
                    };
                    return Ok((resp, times));
                }
                KIND_ERROR => {
                    let fault = WireFault::decode(&bytes).map_err(|e| e.to_string())?;
                    return Err(format!("daemon refused: {fault}"));
                }
                other => return Err(format!("daemon sent frame kind {other}")),
            }
        }
    }

    fn read_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        read_wire_frame(&mut self.stream, MAX_STREAM_FRAME).map_err(|e| format!("read: {e}"))
    }

    fn admit(&mut self, text: &str, max_total_nodes: u64) -> Result<u32, String> {
        let req = Request::Admit {
            query: text.to_string(),
            cfg: inputs::engine_config(max_total_nodes, true),
        };
        match self.call(&req)?.0 {
            Response::Admitted { qid } => Ok(qid),
            other => Err(format!("expected Admitted, got {other:?}")),
        }
    }

    fn step(&mut self, n: u64) -> Result<(u64, bool, CallTimes), String> {
        match self.call(&Request::Step { n })? {
            (Response::Stepped { taken, done }, t) => Ok((taken, done, t)),
            (other, _) => Err(format!("expected Stepped, got {other:?}")),
        }
    }

    fn query_stats(&mut self, qid: u32) -> Result<EngineStats, String> {
        match self.call(&Request::QueryStats { qid })?.0 {
            Response::QueryStats { stats, .. } => Ok(stats),
            other => Err(format!("expected QueryStats, got {other:?}")),
        }
    }
}

fn load_inputs(sp: &DaemonSpec, ctx: &Ctx) -> Result<Inputs, String> {
    let queries = 2 * sp.queries_per_conn;
    Inputs::load(ctx, "daemon_open_loop", sp.scale, sp.delta, queries)
}

/// One CPU for the daemon and one for the harness (sender and drainer): the
/// load generator must not compete with the system under test, and on a
/// two-core box where the scheduler places five threads decides the run's
/// speed more than the code does. `None` on a box with a single CPU.
#[derive(Clone, Copy)]
struct Cores {
    daemon: usize,
    harness: usize,
}

impl Cores {
    fn pick() -> Option<Cores> {
        match procfs::allowed_cpus()[..] {
            [daemon, harness, ..] => Some(Cores { daemon, harness }),
            _ => None,
        }
    }
}

/// Set-up: stream, roster, native dump, daemon start, first response.
fn set_up(
    sp: &DaemonSpec,
    ctx: &Ctx,
    dir: &Path,
    cores: Option<Cores>,
) -> Result<(Inputs, Daemon, Conn), String> {
    let inp = load_inputs(sp, ctx)?;
    let dump = dir.join("stream.txt");
    std::fs::write(&dump, write_temporal_graph(&inp.g)).map_err(|e| e.to_string())?;
    // The child inherits the affinity of the thread that starts it.
    cores.map_or(Ok(()), |c| procfs::pin_to_cpu(c.daemon))?;
    let daemon = Daemon::spawn(&ctx.bin_dir.join("tcsm-serviced"), &dump, inp.delta);
    cores.map_or(Ok(()), |c| procfs::pin_to_cpu(c.harness))?;
    let daemon = daemon?;
    let mut a = Conn::connect(&daemon.addr)?;
    match a.call(&Request::ServiceStats)?.0 {
        Response::ServiceStats { remaining, .. } if remaining == 2 * inp.g.num_edges() as u64 => {}
        other => return Err(format!("daemon serves a different stream: {other:?}")),
    }
    Ok((inp, daemon, a))
}

fn shut_down(mut a: Conn, daemon: Daemon) -> bool {
    let asked = a.call(&Request::Shutdown { checkpoint: false }).is_ok();
    asked && daemon.wait_clean_exit()
}

/// Phase lengths of a run: the spec's, a quarter of them when traced,
/// scaled to the stream when `--smoke` shrank it.
fn phases(sp: &DaemonSpec, total_events: u64, share: f64) -> (u64, u64) {
    let full = (sp.phase_a_events + sp.phase_b_events) as f64;
    let fit = (total_events as f64 * 0.9 / full).min(1.0) * share;
    let align = |e: f64| (e as u64) / sp.phase_a_step * sp.phase_a_step;
    (
        align(sp.phase_a_events as f64 * fit),
        align(sp.phase_b_events as f64 * fit),
    )
}

struct Driven {
    phase_a_events: u64,
    phase_a_s: f64,
    phase_b_events: u64,
    daemon_cpu_s: f64,
    peak_rss_mb: f64,
    samples: Vec<sched::Sample>,
    steps_attempted: u64,
    steps_short: u64,
    empty_rtt: Latencies,
    final_stats: Vec<(u32, EngineStats)>,
    a_tally: Tally,
    b_tally: Tally,
    a_frames: Vec<Vec<u8>>,
    clean_exit: bool,
}

/// Admits the roster over two connections and runs both phases, the drain,
/// the empty-step probe and the shutdown. With a tracer, every step call's
/// client-side parts get spans.
fn drive(
    sp: &DaemonSpec,
    inp: &Inputs,
    daemon: Daemon,
    mut a: Conn,
    share: f64,
    mut tr: Option<&mut Tracer>,
) -> Result<Driven, String> {
    let budget = sp.shape.max_total_nodes;
    let (half_a, half_b) = inp.roster.queries.split_at(sp.queries_per_conn);
    let mut qids = Vec::new();
    for rq in half_a {
        qids.push(a.admit(&rq.text, budget)?);
    }
    let traced = tr.is_some();
    a.keep_frames = traced;
    a.tally.keep_sample = traced;
    let names = tr.as_deref_mut().map(|tr| {
        [
            "server.request_encode",
            "server.socket_write",
            "server.wait_and_read",
            "server.response_decode",
        ]
        .map(|n| tr.name(n))
    });
    let record = |tr: &mut Option<&mut Tracer>, k: u64, t: &CallTimes| {
        if let (Some(tr), Some(n)) = (tr.as_deref_mut(), &names) {
            tr.begin_event(k);
            tr.leaf(n[0], tr.at(t.start), tr.at(t.encoded));
            tr.leaf(n[1], tr.at(t.encoded), tr.at(t.written));
            tr.leaf(n[2], tr.at(t.written), tr.at(t.response_read));
            tr.leaf(n[3], tr.at(t.response_read), tr.at(t.done));
        }
    };

    let (b_ready_tx, b_ready_rx) = mpsc::channel::<Result<Vec<u32>, String>>();
    let addr = daemon.addr.clone();
    std::thread::scope(|scope| -> Result<Driven, String> {
        // Connection B: admit, report the ids, then drain deliveries until
        // the daemon closes the connection at shutdown.
        let b_thread = scope.spawn(move || -> Result<Tally, String> {
            let mut b = match Conn::connect(&addr) {
                Ok(b) => b,
                Err(e) => {
                    let _ = b_ready_tx.send(Err(e.clone()));
                    return Err(e);
                }
            };
            b.tally.keep_sample = traced;
            let admitted: Result<Vec<u32>, String> =
                half_b.iter().map(|rq| b.admit(&rq.text, budget)).collect();
            let ok = admitted.is_ok();
            let _ = b_ready_tx.send(admitted);
            if !ok {
                return Err("connection B could not admit its queries".to_string());
            }
            while let Some(bytes) = b.read_frame()? {
                match frame_kind(&bytes).map_err(|e| e.to_string())? {
                    KIND_DELIVERY => b.tally.delivery(&bytes)?,
                    other => return Err(format!("connection B got frame kind {other}")),
                }
            }
            Ok(b.tally)
        });
        qids.extend(
            b_ready_rx
                .recv()
                .map_err(|_| "connection B died before admitting".to_string())??,
        );

        let total_events = 2 * inp.g.num_edges() as u64;
        let (n_a, n_b) = phases(sp, total_events, share);
        let pid = daemon.pid();
        let cpu0 = procfs::cpu_seconds(pid);
        let (mut steps_attempted, mut steps_short) = (0u64, 0u64);

        // Phase A: closed loop, back to back.
        let t = Instant::now();
        for k in 0..n_a / sp.phase_a_step {
            let (taken, _, times) = a.step(sp.phase_a_step)?;
            steps_attempted += 1;
            steps_short += u64::from(taken != sp.phase_a_step);
            record(&mut tr, k, &times);
        }
        let phase_a_s = t.elapsed().as_secs_f64();

        // Phase B: open loop at the spec's fixed rate.
        let clock = WallClock(Instant::now());
        let sched = Schedule::new(0, TICK as u64, sp.open_loop_rate);
        let mut failure = None;
        let base = n_a / sp.phase_a_step;
        let samples = sched::drive(&clock, &sched, n_b / TICK as u64, |k| {
            if failure.is_some() {
                return;
            }
            match a.step(TICK as u64) {
                Ok((taken, _, times)) => {
                    steps_attempted += 1;
                    steps_short += u64::from(taken != TICK as u64);
                    record(&mut tr, base + k, &times);
                }
                Err(e) => failure = Some(e),
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        let daemon_cpu_s = procfs::cpu_seconds(pid) - cpu0;
        let peak_rss_mb = procfs::peak_rss_mb(pid);

        // Untimed: drain the stream, probe the empty-step round trip (the
        // wire + channel floor), collect the daemon's own counters.
        let (_, done, _) = a.step(0)?;
        if !done {
            return Err("the stream did not drain".to_string());
        }
        let mut empty_rtt = Latencies::default();
        for _ in 0..200 {
            let (taken, _, t) = a.step(TICK as u64)?;
            if taken != 0 {
                return Err("a step past the end of the stream took events".to_string());
            }
            empty_rtt.0.push((t.done - t.start).as_nanos() as u64);
        }
        let mut final_stats = Vec::new();
        for &qid in &qids {
            final_stats.push((qid, a.query_stats(qid)?));
        }
        let a_tally = std::mem::take(&mut a.tally);
        let a_frames = std::mem::take(&mut a.sent_frames);
        let clean_exit = shut_down(a, daemon);
        let b_tally = b_thread
            .join()
            .map_err(|_| "connection B's thread panicked".to_string())??;
        Ok(Driven {
            phase_a_events: n_a,
            phase_a_s,
            phase_b_events: n_b,
            daemon_cpu_s,
            peak_rss_mb,
            samples,
            steps_attempted,
            steps_short,
            empty_rtt,
            final_stats,
            a_tally,
            b_tally,
            a_frames,
            clean_exit,
        })
    })
}

fn check_run(ledger: &mut Ledger, inp: &Inputs, d: &Driven) {
    ledger.attempted += d.steps_attempted;
    ledger.failed += d.steps_short;
    ledger.check(d.clean_exit, || "daemon did not exit cleanly".to_string());
    ledger.check(d.a_tally.inconsistent + d.b_tally.inconsistent == 0, || {
        "a fully decoded delivery disagreed with its frame header".to_string()
    });
    for (rq, (qid, s)) in inp.roster.queries.iter().zip(&d.final_stats) {
        let id = rq.gen_seed;
        let got = d
            .a_tally
            .per_query
            .get(qid)
            .or_else(|| d.b_tally.per_query.get(qid))
            .copied()
            .unwrap_or_default();
        inputs::check_golden(ledger, rq, s);
        inputs::check_drained(ledger, rq, s);
        let want = Received {
            occurred: s.occurred,
            expired: s.expired,
            events: s.occurred + s.expired,
        };
        ledger.check(got == want, || {
            format!("query {id}: client received {got:?}, daemon counted {want:?}")
        });
    }
    inp.check_oracle(ledger);
}

struct PhaseB {
    lat: Latencies,
    lag_p99_us: f64,
    /// Median latency of the last tenth of phase B over the first tenth's:
    /// above 1.1 the backlog is growing at this rate.
    drift_ratio: f64,
}

fn phase_b(samples: &[sched::Sample]) -> PhaseB {
    let lat: Vec<u64> = samples.iter().map(sched::Sample::latency_ns).collect();
    let mut lags: Vec<u64> = samples.iter().map(sched::Sample::lag_ns).collect();
    lags.sort_unstable();
    let tenth = (lat.len() / 10).max(1);
    let med = |s: &[u64]| stats::median(&s.iter().map(|&v| v as f64).collect::<Vec<_>>());
    PhaseB {
        drift_ratio: med(&lat[lat.len() - tenth..]) / med(&lat[..tenth]),
        lag_p99_us: stats::percentile_sorted(&lags, 99.0) as f64 / 1e3,
        lat: Latencies(lat),
    }
}

pub fn run(sp: &DaemonSpec, ctx: &Ctx) -> Result<RunOutput, String> {
    let tmp = TempDir::new(&ctx.bench_dir, "daemon");
    let cores = Cores::pick();
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..sp.setup_repeats {
        let t = Instant::now();
        let (inp, daemon, a) = set_up(sp, ctx, &tmp.0, cores)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < sp.setup_repeats {
            if !shut_down(a, daemon) {
                return Err("a set-up daemon did not exit cleanly".to_string());
            }
        } else {
            live = Some((inp, daemon, a));
        }
    }
    let (inp, daemon, a) = live.expect("setup_repeats >= 1");
    let d = drive(sp, &inp, daemon, a, 1.0, None)?;

    let mut ledger = Ledger::default();
    check_run(&mut ledger, &inp, &d);

    let mut b = phase_b(&d.samples);
    let l = b.lat.summary();
    let events = d.phase_a_events + d.phase_b_events;
    let mut m = Metrics::default();
    m.put("setup_s", "s", stats::median(&setup_s));
    m.put("events_per_s", "1/s", d.phase_a_events as f64 / d.phase_a_s);
    m.put(
        "cpu_us_per_event",
        "us",
        d.daemon_cpu_s * 1e6 / events as f64,
    );
    m.put("step_latency_p50_us", "us", l.p50_us);
    m.put("peak_rss_mb", "MiB", d.peak_rss_mb);
    let mut rtt = d.empty_rtt;
    let mut notes = l.notes();
    if let Some(c) = cores {
        notes.push(("daemon_cpu", (c.daemon as u64).into()));
        notes.push(("harness_cpu", (c.harness as u64).into()));
    }
    notes.extend([
        ("phase_a_events", d.phase_a_events.into()),
        ("phase_a_s", d.phase_a_s.into()),
        ("phase_b_events", d.phase_b_events.into()),
        (
            "phase_b_s",
            (d.phase_b_events as f64 / sp.open_loop_rate as f64).into(),
        ),
        ("open_loop_rate", sp.open_loop_rate.into()),
        (
            "send_interval_us",
            (Schedule::new(0, TICK as u64, sp.open_loop_rate).interval_ns() as f64 / 1e3).into(),
        ),
        ("setup_repeats", (sp.setup_repeats as u64).into()),
        ("generator_lag_p99_us", b.lag_p99_us.into()),
        ("latency_drift_ratio", b.drift_ratio.into()),
        ("empty_step_rtt_p50_us", rtt.summary().p50_us.into()),
        (
            "deliveries",
            (d.a_tally.deliveries + d.b_tally.deliveries).into(),
        ),
        (
            "delivered_bytes",
            (d.a_tally.bytes + d.b_tally.bytes).into(),
        ),
        ("delta", (inp.delta as u64).into()),
        ("stream_edges", (inp.g.num_edges() as u64).into()),
    ]);
    Ok(RunOutput {
        ledger,
        metrics: m,
        notes,
    })
}

/// The same queries in one in-process `MatchService` over the same events:
/// what the daemon's work costs as a library call.
fn in_process_step_ns(sp: &DaemonSpec, inp: &Inputs, events: u64) -> f64 {
    let cfg = crate::service_wl::service_config(1, 0);
    let mut svc = MatchService::new(&inp.g, inp.delta, cfg).expect("valid window");
    for rq in &inp.roster.queries {
        let cfg = inputs::engine_config(sp.shape.max_total_nodes, true);
        svc.add_query(&rq.query, cfg, Box::new(DiscardSink::new(true)));
    }
    let t = Instant::now();
    for _ in 0..events {
        svc.step();
    }
    t.elapsed().as_nanos() as f64
}

pub fn run_traced(sp: &DaemonSpec, ctx: &Ctx) -> Result<(RunOutput, Tracer), String> {
    let tmp = TempDir::new(&ctx.bench_dir, "daemon-trace");
    let (inp, daemon, a) = set_up(sp, ctx, &tmp.0, Cores::pick())?;
    let text = std::fs::read_to_string(tmp.0.join("stream.txt")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    std::hint::black_box(parse_temporal_graph(&text).map_err(|e| e.to_string())?);
    let native_parse_ns = t.elapsed().as_nanos() as f64;
    drop(text);

    let total_events = 2 * inp.g.num_edges() as u64;
    let (n_a, n_b) = phases(sp, total_events, spec::TRACE_SHARE);
    let mut tr = Tracer::new(64);
    let wall = Instant::now();
    let d = drive(sp, &inp, daemon, a, spec::TRACE_SHARE, Some(&mut tr))?;
    let wall_s = wall.elapsed().as_secs_f64();
    let mut ledger = Ledger::default();
    check_run(&mut ledger, &inp, &d);

    // Server-side halves of the codec, replayed offline over what crossed
    // the wire: the daemon decoded these requests, encoded that many
    // `Stepped` responses, and encoded these deliveries.
    let t = Instant::now();
    for f in &d.a_frames {
        std::hint::black_box(Request::decode(f).map_err(|e| e.to_string())?);
    }
    let request_decode_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for seq in 0..d.a_frames.len() as u64 {
        std::hint::black_box(
            Response::Stepped {
                taken: 64,
                done: false,
            }
            .encode(seq),
        );
    }
    let response_encode_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for s in d.a_tally.sample.iter().chain(&d.b_tally.sample) {
        std::hint::black_box(Delivery::encode_parts(
            s.qid, s.occurred, s.expired, &s.events,
        ));
    }
    let sample_bytes = (d.a_tally.sample_bytes + d.b_tally.sample_bytes).max(1) as f64;
    let delivered_bytes = (d.a_tally.bytes + d.b_tally.bytes) as f64;
    // Scaled from the sampled sixteenth to every delivered byte.
    let delivery_encode_ns = t.elapsed().as_nanos() as f64 * delivered_bytes / sample_bytes;

    let step_ns = in_process_step_ns(sp, &inp, n_a + n_b);
    let mut b = phase_b(&d.samples);
    let l = b.lat.summary();
    let mut rtt = d.empty_rtt;
    let total = |n: &str| tr.agg(n).total_ns as f64;
    let mut m = Metrics::default();
    m.put("graph.native_parse_ns", "ns", native_parse_ns);
    m.put(
        "server.request_encode_ns",
        "ns",
        total("server.request_encode"),
    );
    m.put("server.request_decode_ns", "ns", request_decode_ns);
    m.put("server.response_encode_ns", "ns", response_encode_ns);
    m.put(
        "server.response_decode_ns",
        "ns",
        total("server.response_decode"),
    );
    m.put("server.delivery_encode_ns", "ns", delivery_encode_ns);
    m.put(
        "server.delivery_decode_ns",
        "ns",
        (d.a_tally.decode_ns + d.b_tally.decode_ns) as f64 * delivered_bytes / sample_bytes,
    );
    m.put("server.socket_write_ns", "ns", total("server.socket_write"));
    m.put(
        "server.wait_and_read_ns",
        "ns",
        total("server.wait_and_read"),
    );
    m.put("server.empty_step_rtt_us", "us", rtt.summary().p50_us);
    m.put(
        "server.deliveries",
        "count",
        (d.a_tally.deliveries + d.b_tally.deliveries) as f64,
    );
    m.put("server.delivered_bytes", "B", delivered_bytes);
    m.put("server.daemon_cpu_s", "s", d.daemon_cpu_s);
    m.put("service.step_ns", "ns", step_ns);
    m.put("bench.generator_lag_p99_us", "us", b.lag_p99_us);
    m.put("bench.latency_drift_ratio", "ratio", b.drift_ratio);
    m.put("bench.step_latency_p50_us", "us", l.p50_us);
    m.put("bench.step_latency_p99_us", "us", l.p99_us);
    m.put("bench.step_latency_top_pct", "%", l.top_pct);
    m.put("bench.step_latency_top_us", "us", l.top_us);
    m.put("bench.traced_wall_s", "s", wall_s);
    m.put("bench.solved_share", "share", ledger.solved_share());
    Ok((
        RunOutput {
            ledger,
            metrics: m,
            notes: vec![
                ("traced_events", (n_a + n_b).into()),
                ("traced_wall_s", wall_s.into()),
                ("in_process_step_ns", step_ns.into()),
            ],
        },
        tr,
    ))
}
