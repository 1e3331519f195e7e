//! The repo's benchmark harness. See `benchmark/README.md`.

mod common;
mod daemon_wl;
mod engine_wl;
mod inputs;
mod json;
mod procfs;
mod sched;
mod selfcheck;
mod service_wl;
mod spec;
mod stats;
mod trace;

use common::{Ctx, Metrics, RunOutput};
use json::Json;
use std::path::PathBuf;
use trace::Tracer;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    holdout: bool,
    smoke: bool,
    bless: bool,
    selfcheck: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20      [--holdout] [--smoke] | --selfcheck | --bless [--workload NAME]\n\
         workloads: {}",
        spec::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        holdout: false,
        smoke: false,
        bless: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} takes a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = Some(value().parse().unwrap_or_else(|_| usage("bad --seconds")))
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--holdout" => a.holdout = true,
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            "--selfcheck" => a.selfcheck = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !spec::WORKLOADS.contains(&w.as_str()) {
            usage(&format!("unknown workload '{w}'"));
        }
    }
    if a.bless && a.smoke {
        // A smoke roster is unbanded and miniature; it must never replace a
        // pinned one.
        usage("--bless writes the pinned rosters; --smoke blesses its own scratch roster");
    }
    a
}

fn run_workload(name: &str, trace: bool, ctx: &Ctx) -> Result<(RunOutput, Option<Tracer>), String> {
    let traced = |r: Result<(RunOutput, Tracer), String>| r.map(|(out, tr)| (out, Some(tr)));
    let engine = |sp| {
        if trace {
            traced(engine_wl::run_traced(sp, ctx))
        } else {
            engine_wl::run(sp, ctx).map(|out| (out, None))
        }
    };
    match (name, trace) {
        ("filter_bound", _) => engine(&spec::FILTER_BOUND),
        ("search_bound", _) => engine(&spec::SEARCH_BOUND),
        ("service_churn", false) => service_wl::run(&spec::SERVICE_CHURN, ctx).map(|o| (o, None)),
        ("service_churn", true) => traced(service_wl::run_traced(&spec::SERVICE_CHURN, ctx)),
        ("daemon_open_loop", false) => {
            daemon_wl::run(&spec::DAEMON_OPEN_LOOP, ctx).map(|o| (o, None))
        }
        ("daemon_open_loop", true) => traced(daemon_wl::run_traced(&spec::DAEMON_OPEN_LOOP, ctx)),
        _ => unreachable!("parse_args admits only spec::WORKLOADS"),
    }
}

/// Blesses `name`'s roster for `ctx.family` into `ctx.rosters`: banded on
/// the full stream for `--bless`, unbanded on the miniature for `--smoke`.
fn bless_one(name: &str, ctx: &Ctx) -> Result<(), String> {
    eprintln!("blessing {name}-{}", ctx.family);
    let banded = !ctx.smoke;
    let standalone = |scale, delta, queries, shape| {
        let sizing = inputs::sizing(ctx, scale, delta);
        engine_wl::bless(name, sizing, queries, shape, banded, ctx)
    };
    match name {
        "filter_bound" | "search_bound" => {
            let sp = if name == "filter_bound" {
                &spec::FILTER_BOUND
            } else {
                &spec::SEARCH_BOUND
            };
            standalone(sp.scale, sp.delta, sp.queries, &sp.shape)
        }
        "service_churn" => service_wl::bless(&spec::SERVICE_CHURN, banded, ctx),
        "daemon_open_loop" => {
            let sp = &spec::DAEMON_OPEN_LOOP;
            standalone(sp.scale, sp.delta, 2 * sp.queries_per_conn, &sp.shape)
        }
        _ => unreachable!("parse_args admits only spec::WORKLOADS"),
    }
}

/// The environment and every resolved constant of the run, for the report.
fn stamp(args: &Args, name: &str, ctx: &Ctx) -> Vec<(&'static str, Json)> {
    let tool = |cmd: &str, cmd_args: &[&str]| {
        std::process::Command::new(cmd)
            .args(cmd_args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    vec![
        ("workload", name.into()),
        ("seed", ctx.seed.into()),
        ("roster_family", ctx.family.into()),
        ("smoke", Json::Bool(ctx.smoke)),
        ("trace", Json::Bool(args.trace)),
        (
            "git_rev",
            tool("git", &["rev-parse", "HEAD"])
                .as_deref()
                .unwrap_or("unknown (not a git checkout)")
                .into(),
        ),
        (
            "rustc",
            tool("rustc", &["--version"])
                .as_deref()
                .unwrap_or("unknown")
                .into(),
        ),
        ("nproc", nproc.into()),
        ("tick_events", (spec::TICK as u64).into()),
    ]
}

/// The metrics the driver's contract asks for, in `BENCHMARK.json`'s order:
/// every end-to-end metric untraced, every per-layer metric traced (0 where
/// a layer is not on this workload's path).
fn contract_metrics(got: Metrics, trace: bool) -> Result<Metrics, String> {
    let list: &[(&'static str, &'static str)] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    if let Some(stray) = got
        .0
        .iter()
        .find(|m| list.iter().all(|(n, _)| *n != m.name))
    {
        return Err(format!("metric {} is not in the spec's list", stray.name));
    }
    let mut out = Metrics::default();
    for &(name, unit) in list {
        match got.0.iter().find(|m| m.name == name) {
            Some(m) => out.put(name, unit, m.value),
            None if trace => out.put(name, unit, 0.0),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    Ok(out)
}

fn run_one(args: &Args, name: &str, ctx: &Ctx) -> Result<(), String> {
    let steal0 = procfs::host_steal_seconds();
    let (out, tracer) = run_workload(name, args.trace, ctx)?;
    let mut notes = stamp(args, name, ctx);
    notes.push((
        "host_steal_s",
        (procfs::host_steal_seconds() - steal0).into(),
    ));
    if let Some(s) = args.seconds {
        // Work is fixed, time varies: `--seconds` is the nominal length the
        // work was sized for, not a budget.
        notes.push(("nominal_seconds", s.into()));
    }
    notes.extend(out.notes);
    notes.push(("solved_share", out.ledger.solved_share().into()));
    let mut report = Json::Obj(notes.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    eprintln!("{}", report.render_pretty());
    if let (Some(tr), Json::Obj(map)) = (&tracer, &mut report) {
        let (aggs, spans) = tr.to_json();
        map.insert("aggregates".to_string(), aggs);
        map.insert("spans".to_string(), spans);
        let path = ctx.results_dir().join(format!("trace-{name}.json"));
        std::fs::write(&path, report.render_pretty()).map_err(|e| e.to_string())?;
    }
    let line = Json::obj([
        ("correct", Json::Bool(out.ledger.failed == 0)),
        ("attempted", out.ledger.attempted.into()),
        ("failed", out.ledger.failed.into()),
        (
            "metrics",
            contract_metrics(out.metrics, args.trace)?.to_json(),
        ),
    ]);
    println!("{}", line.render());
    if out.ledger.failed != 0 {
        return Err(format!(
            "{} of {} operations failed",
            out.ledger.failed, out.ledger.attempted
        ));
    }
    Ok(())
}

fn main() {
    // `exit` runs no destructors, so everything that owns a scratch
    // directory or a child process lives (and dies) inside `run`.
    std::process::exit(run());
}

fn run() -> i32 {
    // First, while still single-threaded: no ambient TCSM_* switch may reach
    // the library or the daemon child.
    procfs::scrub_tcsm_env();
    if cfg!(debug_assertions) {
        eprintln!("error: the benchmark measures release builds only (use benchmark/run.sh)");
        return 2;
    }
    let args = parse_args();
    let exe = std::env::current_exe().expect("current_exe");
    // `run.sh` starts the harness from the root of the checkout.
    let bench_dir = PathBuf::from("benchmark");
    let smoke_rosters = (args.smoke && args.workload.is_some())
        .then(|| common::TempDir::new(&bench_dir, "smoke-rosters"));
    let mut ctx = Ctx {
        seed: args.seed,
        family: if args.holdout { "holdout" } else { "default" },
        smoke: args.smoke,
        rosters: match &smoke_rosters {
            Some(tmp) => tmp.0.clone(),
            None => bench_dir.join("rosters"),
        },
        bench_dir,
        bin_dir: exe.parent().expect("exe has a parent").to_path_buf(),
    };
    let mut pass_on = Vec::new();
    if args.smoke {
        pass_on.push("--smoke");
    }
    if args.holdout {
        pass_on.push("--holdout");
    }
    let outcome = if args.bless {
        let names: Vec<&str> = match args.workload.as_deref() {
            Some(w) => vec![w],
            None => spec::WORKLOADS.to_vec(),
        };
        names.into_iter().try_for_each(|name| {
            spec::FAMILIES.into_iter().try_for_each(|family| {
                ctx.family = family;
                bless_one(name, &ctx)
            })
        })
    } else if args.selfcheck {
        selfcheck::selfcheck(&pass_on)
    } else if let Some(name) = args.workload.as_deref() {
        let roster = if ctx.smoke {
            bless_one(name, &ctx)
        } else {
            Ok(())
        };
        roster.and_then(|()| run_one(&args, name, &ctx))
    } else {
        selfcheck::report_all(args.seed, &pass_on)
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
