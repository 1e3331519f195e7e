//! Every fixed constant of the benchmark, in one place. Nothing here is
//! derived at run time; re-measure and edit (then `--bless`) in a change
//! that touches only the benchmark.

/// Events per tick: the unit `step_latency_*` is measured over, and the
/// `n` of every daemon `step` request in phase B.
pub const TICK: usize = 64;

/// Share of the stream the traced run covers.
pub const TRACE_SHARE: f64 = 0.25;

pub const FAMILIES: [&str; 2] = ["default", "holdout"];

/// The `DatasetProfile::generate` seed of each roster family's stream.
pub fn stream_seed(family: &str) -> u64 {
    match family {
        "default" => 20_240,
        _ => 20_241,
    }
}

/// Acceptance band on a candidate query's *full-run counters* (never its
/// running time): a rate per stream event, inclusive.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    pub nodes_per_event: (f64, f64),
    pub kernel_per_event: (f64, f64),
    pub matches_per_event: (f64, f64),
}

#[derive(Clone, Copy, Debug)]
pub struct QueryShape {
    /// Query sizes cycled through while scanning `QueryGen` seeds.
    pub sizes: &'static [usize],
    pub density: f64,
    pub band: Band,
    /// `SearchBudget::max_total_nodes`: the safety cap. A roster query that
    /// exhausts it is a failed operation.
    pub max_total_nodes: u64,
}

/// `filter_bound` / `search_bound`: one fresh `TcmEngine` per roster query.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpec {
    pub name: &'static str,
    pub scale: f64,
    pub delta: i64,
    pub queries: usize,
    /// Full set-ups per run; `setup_s` is their median. More where one
    /// set-up is short.
    pub setup_repeats: usize,
    pub shape: QueryShape,
}

pub const FILTER_BOUND: EngineSpec = EngineSpec {
    name: "filter_bound",
    scale: 20.0,
    delta: 10_000,
    queries: 5,
    setup_repeats: 5,
    shape: QueryShape {
        sizes: &[6],
        density: 1.0,
        band: Band {
            nodes_per_event: (0.0, 0.5),
            kernel_per_event: (2.0, 4.5),
            matches_per_event: (0.0, f64::MAX),
        },
        max_total_nodes: 4_000_000,
    },
};

pub const SEARCH_BOUND: EngineSpec = EngineSpec {
    name: "search_bound",
    scale: 5.0,
    delta: 20_000,
    queries: 6,
    setup_repeats: 9,
    shape: QueryShape {
        sizes: &[5],
        density: 0.5,
        band: Band {
            nodes_per_event: (25.0, 80.0),
            kernel_per_event: (0.0, 3.0),
            matches_per_event: (0.0, f64::MAX),
        },
        max_total_nodes: 60_000_000,
    },
};

/// `service_churn`: one `MatchService`, residents retired and reserves
/// admitted on a fixed schedule.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    pub scale: f64,
    pub delta: i64,
    pub shards: usize,
    pub residents: usize,
    /// Retire-oldest + admit-reserve pairs, one every `1/(churns+1)` of the
    /// stream.
    pub churns: usize,
    /// Stream share at which the one checkpoint is taken.
    pub checkpoint_at: f64,
    pub setup_repeats: usize,
    pub shape: QueryShape,
}

pub const SERVICE_CHURN: ServiceSpec = ServiceSpec {
    scale: 10.0,
    delta: 5_000,
    shards: 2,
    residents: 16,
    churns: 64,
    checkpoint_at: 0.5,
    setup_repeats: 9,
    shape: QueryShape {
        sizes: &[4, 5, 6],
        density: 0.5,
        band: Band {
            nodes_per_event: (0.05, 4.0),
            kernel_per_event: (0.0, f64::MAX),
            matches_per_event: (0.0, f64::MAX),
        },
        max_total_nodes: 20_000_000,
    },
};

/// `daemon_open_loop`: the real `tcsm-serviced` over loopback.
#[derive(Clone, Copy, Debug)]
pub struct DaemonSpec {
    pub scale: f64,
    pub delta: i64,
    /// Queries admitted on each of the two connections.
    pub queries_per_conn: usize,
    /// Phase A: closed loop over events `[0, phase_a_events)`.
    pub phase_a_events: u64,
    /// `n` of each phase-A `step` request.
    pub phase_a_step: u64,
    /// Phase B: open loop over the next `phase_b_events`.
    pub phase_b_events: u64,
    /// Offered load of phase B in stream events per second. Chosen once, at
    /// about half of the phase-A rate measured when the benchmark was
    /// defined, and never derived at run time: a faster daemon must show as
    /// lower latency at the *same* load.
    pub open_loop_rate: u64,
    pub setup_repeats: usize,
    pub shape: QueryShape,
}

pub const DAEMON_OPEN_LOOP: DaemonSpec = DaemonSpec {
    scale: 17.0,
    delta: 5_000,
    queries_per_conn: 4,
    phase_a_events: 1_310_720,
    phase_b_events: 600_064,
    phase_a_step: 256,
    open_loop_rate: 60_000,
    setup_repeats: 5,
    shape: QueryShape {
        sizes: &[4, 5],
        density: 0.5,
        band: Band {
            nodes_per_event: (0.0, 3.0),
            kernel_per_event: (0.0, f64::MAX),
            matches_per_event: (0.02, 0.4),
        },
        max_total_nodes: 20_000_000,
    },
};

/// `--smoke`: same code paths on streams this many times the profile's
/// base size, with windows shrunk in proportion.
pub const SMOKE_SCALE: f64 = 0.5;

pub const WORKLOADS: [&str; 4] = [
    "filter_bound",
    "search_bound",
    "service_churn",
    "daemon_open_loop",
];

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_us_per_event", "us"),
    ("step_latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists
/// them. A traced run reports all of them; one that is not on a workload's
/// path reads 0 there.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("datasets.generate_ns", "ns"),
    ("datasets.querygen_ns", "ns"),
    ("graph.native_parse_ns", "ns"),
    ("core.runtime_new_ns", "ns"),
    ("graph.queue_pop_ns", "ns"),
    ("graph.window_insert_ns", "ns"),
    ("graph.window_remove_ns", "ns"),
    ("graph.window_alive_edges_peak", "count"),
    ("graph.pair_slab_len_peak", "count"),
    ("filter.on_insert_ns", "ns"),
    ("filter.on_delete_ns", "ns"),
    ("filter.kernel_invocations", "count"),
    ("filter.kernel_lanes", "count"),
    ("filter.kernel_early_exits", "count"),
    ("filter.deltas_per_event", "ratio"),
    ("filter.pairs_per_alive_edge", "ratio"),
    ("filter.rebuild_from_window_ns", "ns"),
    ("dcs.apply_ns", "ns"),
    ("dcs.edges_avg", "count"),
    ("dcs.vertices_avg", "count"),
    ("dcs.deltas_applied", "count"),
    ("core.apply_insert_ns", "ns"),
    ("core.sweep_expiring_ns", "ns"),
    ("core.apply_delete_ns", "ns"),
    ("core.matcher_self_ns", "ns"),
    ("core.search_nodes", "count"),
    ("core.matches_per_node", "ratio"),
    ("core.pruned_case1", "count"),
    ("core.pruned_case2", "count"),
    ("core.pruned_case3", "count"),
    ("core.cloned_case1", "count"),
    ("service.step_ns", "ns"),
    ("service.sink_deliver_ns", "ns"),
    ("service.sink_deliveries", "count"),
    ("service.add_query_ns", "ns"),
    ("service.remove_query_ns", "ns"),
    ("service.checkpoint_ns", "ns"),
    ("service.checkpoint_bytes", "B"),
    ("service.restore_ns", "ns"),
    ("service.overhead_share", "share"),
    ("service.step_ns_t0", "ns"),
    ("service.step_ns_t2", "ns"),
    ("service.admit_latency_p50_us", "us"),
    ("server.request_encode_ns", "ns"),
    ("server.request_decode_ns", "ns"),
    ("server.response_encode_ns", "ns"),
    ("server.response_decode_ns", "ns"),
    ("server.delivery_encode_ns", "ns"),
    ("server.delivery_decode_ns", "ns"),
    ("server.socket_write_ns", "ns"),
    ("server.wait_and_read_ns", "ns"),
    ("server.empty_step_rtt_us", "us"),
    ("server.deliveries", "count"),
    ("server.delivered_bytes", "B"),
    ("server.daemon_cpu_s", "s"),
    ("telemetry.counters_overhead_ratio", "ratio"),
    ("bench.generator_lag_p99_us", "us"),
    ("bench.latency_drift_ratio", "ratio"),
    ("bench.step_latency_p50_us", "us"),
    ("bench.step_latency_p99_us", "us"),
    ("bench.step_latency_top_pct", "%"),
    ("bench.step_latency_top_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.budget_residual_share", "share"),
    ("bench.share_graph", "share"),
    ("bench.share_filter_dcs", "share"),
    ("bench.share_matcher", "share"),
    ("bench.traced_wall_s", "s"),
    ("bench.solved_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// harness emits. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, with: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s(with))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(names("per_layer", "unit"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads", "why").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name, "_.-", 64), "name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "unit {unit}");
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
