//! Running the harness as a child of itself: the all-workloads report and
//! the A/A `--selfcheck`.

use crate::json::Json;
use crate::spec;
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One run in a fresh process — exactly what the driver does — returning
/// the parsed result line.
fn run_child(workload: &str, seed: u64, extra: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", "0"])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-run the harness: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload} (seed {seed}) failed: {last}"));
    }
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    let Some(Json::Obj(m)) = result.get("metrics") else {
        return BTreeMap::new();
    };
    m.iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

/// Every end-to-end metric of every workload, by name and with its unit.
pub fn report_all(seed: u64, extra: &[&str]) -> Result<(), String> {
    let mut rows = Vec::new();
    for w in spec::WORKLOADS {
        eprintln!("== {w}");
        let r = run_child(w, seed, extra)?;
        rows.push((w, metric_values(&r), r));
    }
    let header: Vec<String> = spec::WORKLOADS.iter().map(|w| format!("{w:>16}")).collect();
    println!("{:<22} {:>8} {}", "metric", "unit", header.join(" "));
    for (name, unit) in spec::END_TO_END {
        let cells: Vec<String> = rows
            .iter()
            .map(|(_, m, _)| format!("{:>16.4}", m.get(name).copied().unwrap_or(f64::NAN)))
            .collect();
        println!("{name:<22} {unit:>8} {}", cells.join(" "));
    }
    let cells: Vec<String> = rows
        .iter()
        .map(|(_, _, r)| {
            let n = |k| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            format!("{:>16.6}", 1.0 - n("failed") / n("attempted"))
        })
        .collect();
    println!("{:<22} {:>8} {}", "solved_share", "share", cells.join(" "));
    Ok(())
}

/// `(bound, lower_is_better)` of each end-to-end metric, from the
/// `BENCHMARK.json` at the root of the checkout.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let get = |k| m.get(k).and_then(Json::as_str);
            let name = get("name").ok_or("end_to_end entry without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end entry without a bound")?;
            Ok((name.to_string(), (bound, get("better") == Some("lower"))))
        })
        .collect()
}

/// Runs per set of the A/A check: A B A B.
const RUNS_PER_SET: usize = 2;

/// How far a single run may lie from its set's median.
const RUN_TOLERANCE: f64 = 0.10;

/// A/A: each workload four times over this same binary, runs alternately
/// assigned to set A and set B (A B A B), every run with another seed as
/// the driver does. Prints each metric's two medians, by how much B reads
/// *worse* than A, the quartile spread over all runs, and the farthest any
/// run lies from its own set's median; fails when the A/A difference
/// exceeds the metric's bound or a run lies more than a tenth from its
/// set's median.
pub fn selfcheck(extra: &[&str]) -> Result<(), String> {
    let bounds = bounds()?;
    let mut violations = Vec::new();
    println!(
        "{:<18} {:<22} {:>13} {:>13} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "B worse", "IQR/med", "run off", "bound"
    );
    for w in spec::WORKLOADS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for i in 0..2 * RUNS_PER_SET {
            eprintln!(
                "== {w}: run {} of {} (set {})",
                i + 1,
                2 * RUNS_PER_SET,
                ["A", "B"][i % 2]
            );
            let r = run_child(w, 101 + i as u64, extra)?;
            for (k, v) in metric_values(&r) {
                sets[i % 2].entry(k).or_default().push(v);
            }
        }
        for (name, _) in spec::END_TO_END {
            let (bound, lower_better) = *bounds
                .get(name)
                .ok_or_else(|| format!("BENCHMARK.json lacks {name}"))?;
            let (a, b) = (&sets[0][name], &sets[1][name]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let worse = if lower_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            let spread = stats::relative_iqr(&all);
            let off =
                |set: &[f64], m: f64| set.iter().map(|v| (v / m - 1.0).abs()).fold(0.0, f64::max);
            let run_off = off(a, ma).max(off(b, mb));
            println!(
                "{w:<18} {name:<22} {ma:>13.4} {mb:>13.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.1}%",
                worse * 100.0,
                spread * 100.0,
                run_off * 100.0,
                bound * 100.0
            );
            if worse.abs() > bound {
                violations.push(format!("{w}/{name}: A/A difference {:.2}%", worse * 100.0));
            }
            if run_off > RUN_TOLERANCE {
                violations.push(format!(
                    "{w}/{name}: a run lies {:.2}% from its set's median",
                    run_off * 100.0
                ));
            }
        }
    }
    if violations.is_empty() {
        println!(
            "selfcheck passed: every A/A difference is within its bound, every run within a tenth of its set's median"
        );
        Ok(())
    } else {
        Err(format!("selfcheck failed: {}", violations.join("; ")))
    }
}
