//! Benchmark inputs: the generated stream, the pinned query rosters, and
//! the small-stream oracle comparison.

use crate::common::{Ctx, Ledger};
use crate::json::Json;
use crate::spec;
use std::path::{Path, PathBuf};
use tcsm_baselines::OracleEngine;
use tcsm_core::{EngineConfig, EngineStats, MatchKind, SearchBudget, TcmEngine};
use tcsm_datasets::profiles::STACKOVERFLOW;
use tcsm_graph::io::{parse_query_graph, write_query_graph};
use tcsm_graph::{QueryGraph, TemporalGraph, TemporalGraphBuilder};

/// SplitMix64 — the harness's own generator, so input derivation does not
/// depend on the workspace's `rand` stand-in staying as it is.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The stream of one run: `STACKOVERFLOW.generate(stream_seed, scale)` (one
/// edge per tick) with its vertex ids permuted by `--seed`.
///
/// Query cost on this generator is heavy-tailed, so which *queries* run is
/// pinned in the roster files and the roster fixes `stream_seed`. `--seed`
/// therefore relabels vertices instead of re-rolling the graph: every table
/// indexed or hashed by vertex id is laid out differently, while the match
/// counts — invariant under isomorphism — must still equal the roster's
/// golden counts exactly.
pub fn build_stream(stream_seed: u64, scale: f64, seed: u64) -> TemporalGraph {
    let g = STACKOVERFLOW.generate(stream_seed, scale);
    let n = g.num_vertices();
    let mut rng = SplitMix(seed ^ 0x5eed_1e55_0bad_cafe);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut labels = vec![0; n];
    for (v, &l) in g.labels().iter().enumerate() {
        labels[perm[v] as usize] = l;
    }
    let mut b = TemporalGraphBuilder::new();
    for l in labels {
        b.vertex(l);
    }
    for e in g.edges() {
        b.edge_full(
            perm[e.src as usize],
            perm[e.dst as usize],
            e.time.raw(),
            e.label,
        );
    }
    b.build().expect("a relabelled valid graph is valid")
}

/// The first `edges` edges of `g` as a stream of their own, over only the
/// vertices they touch (ids compacted in first-use order, labels kept).
pub fn prefix_stream(g: &TemporalGraph, edges: usize) -> TemporalGraph {
    let mut ids: tcsm_graph::FxHashMap<u32, u32> = tcsm_graph::FxHashMap::default();
    let mut b = TemporalGraphBuilder::new();
    let mut id_of = |b: &mut TemporalGraphBuilder, v: u32| {
        *ids.entry(v).or_insert_with(|| b.vertex(g.label(v)))
    };
    for e in g.edges().iter().take(edges) {
        let (s, d) = (id_of(&mut b, e.src), id_of(&mut b, e.dst));
        b.edge_full(s, d, e.time.raw(), e.label);
    }
    b.build().expect("a prefix of a valid graph is valid")
}

/// `g` from edge index `first` on, over the full vertex set and with the
/// original timestamps — the shortest stream whose window equals `g`'s at
/// every event after the cut has filled one window length.
pub fn suffix_stream(g: &TemporalGraph, first: usize) -> TemporalGraph {
    let mut b = TemporalGraphBuilder::new();
    for &l in g.labels() {
        b.vertex(l);
    }
    for e in &g.edges()[first..] {
        b.edge_full(e.src, e.dst, e.time.raw(), e.label);
    }
    b.build().expect("a suffix of a valid graph is valid")
}

/// Counters the roster pins (`occurred`, `expired`) or records for
/// information (`search_nodes`, `kernel_invocations`: both may move when an
/// optimisation changes search or propagation order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Golden {
    pub occurred: u64,
    pub expired: u64,
    pub search_nodes: u64,
    pub kernel_invocations: u64,
}

impl Golden {
    pub fn of(s: &EngineStats) -> Golden {
        Golden {
            occurred: s.occurred,
            expired: s.expired,
            search_nodes: s.search_nodes,
            kernel_invocations: s.kernel_invocations,
        }
    }
}

pub struct RosterQuery {
    /// The `QueryGen` seed the query came from (provenance only).
    pub gen_seed: u64,
    pub text: String,
    pub query: QueryGraph,
    pub golden: Golden,
}

pub struct Roster {
    pub workload: String,
    pub family: String,
    pub stream_seed: u64,
    pub queries: Vec<RosterQuery>,
}

pub fn roster_path(dir: &Path, workload: &str, family: &str) -> PathBuf {
    dir.join(format!("{workload}-{family}.json"))
}

impl Roster {
    pub fn load(dir: &Path, workload: &str, family: &str) -> Result<Roster, String> {
        let path = roster_path(dir, workload, family);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read roster {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{}: missing number '{k}'", path.display()))
        };
        let mut queries = Vec::new();
        for item in doc.get("queries").and_then(Json::as_arr).unwrap_or(&[]) {
            let text = item
                .get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: query without text", path.display()))?
                .to_string();
            let query = parse_query_graph(&text)
                .map_err(|e| format!("{}: bad roster query: {e}", path.display()))?;
            queries.push(RosterQuery {
                gen_seed: field(item, "gen_seed")?,
                golden: Golden {
                    occurred: field(item, "occurred")?,
                    expired: field(item, "expired")?,
                    search_nodes: field(item, "search_nodes")?,
                    kernel_invocations: field(item, "kernel_invocations")?,
                },
                text,
                query,
            });
        }
        if queries.is_empty() {
            return Err(format!("{}: empty roster", path.display()));
        }
        Ok(Roster {
            workload: workload.to_string(),
            family: family.to_string(),
            stream_seed: field(&doc, "stream_seed")?,
            queries,
        })
    }

    pub fn save(&self, dir: &Path) -> Result<(), String> {
        let doc = Json::obj([
            ("workload", self.workload.as_str().into()),
            ("family", self.family.as_str().into()),
            ("stream_seed", self.stream_seed.into()),
            (
                "queries",
                Json::Arr(
                    self.queries
                        .iter()
                        .map(|q| {
                            Json::obj([
                                ("gen_seed", q.gen_seed.into()),
                                ("text", q.text.as_str().into()),
                                ("occurred", q.golden.occurred.into()),
                                ("expired", q.golden.expired.into()),
                                ("search_nodes", q.golden.search_nodes.into()),
                                ("kernel_invocations", q.golden.kernel_invocations.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let path = roster_path(dir, &self.workload, &self.family);
        std::fs::write(&path, doc.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

pub fn roster_query(gen_seed: u64, q: &QueryGraph, golden: Golden) -> RosterQuery {
    RosterQuery {
        gen_seed,
        text: write_query_graph(q),
        query: q.clone(),
        golden,
    }
}

/// The engine configuration every library workload uses: serial, per-event
/// regime, directed, counting only, capped by `max_total_nodes`.
pub fn engine_config(max_total_nodes: u64, collect_matches: bool) -> EngineConfig {
    EngineConfig {
        directed: true,
        collect_matches,
        threads: 0,
        batching: false,
        budget: SearchBudget {
            max_total_nodes,
            ..SearchBudget::default()
        },
        ..EngineConfig::default()
    }
}

/// Edges of the oracle sub-stream and its window. The oracle re-enumerates
/// every embedding after every event, so both stay small.
pub const ORACLE_EDGES: usize = 2_000;
pub const ORACLE_DELTA: i64 = 250;

/// Does `TcmEngine` report exactly the oracle's occurred/expired counts for
/// `q` on `sub` (a [`prefix_stream`])?
pub fn agrees_with_oracle(q: &QueryGraph, sub: &TemporalGraph) -> bool {
    let count = |events: &[tcsm_core::MatchEvent]| {
        let occ = events
            .iter()
            .filter(|m| m.kind == MatchKind::Occurred)
            .count();
        (occ, events.len() - occ)
    };
    let mut oracle = OracleEngine::new(q, sub, ORACLE_DELTA, true).expect("valid oracle window");
    let want = count(&oracle.run());
    let mut engine =
        TcmEngine::new(q, sub, ORACLE_DELTA, engine_config(0, true)).expect("valid window");
    let got = count(&engine.run());
    want == got
}

/// Scale and window of a run: the spec's, or the smoke miniature.
pub fn sizing(ctx: &Ctx, scale: f64, delta: i64) -> (f64, i64) {
    if ctx.smoke {
        let shrink = spec::SMOKE_SCALE / scale;
        (spec::SMOKE_SCALE, ((delta as f64 * shrink) as i64).max(200))
    } else {
        (scale, delta)
    }
}

/// What every workload's set-up starts from: the pinned roster and the
/// stream it fixes, relabelled by `--seed`.
pub struct Inputs {
    pub g: TemporalGraph,
    pub delta: i64,
    pub roster: Roster,
}

impl Inputs {
    pub fn load(
        ctx: &Ctx,
        workload: &str,
        scale: f64,
        delta: i64,
        queries: usize,
    ) -> Result<Inputs, String> {
        let (scale, delta) = sizing(ctx, scale, delta);
        let roster = Roster::load(&ctx.rosters, workload, ctx.family)?;
        if roster.queries.len() != queries {
            return Err(format!(
                "{workload} roster holds {} queries, the spec wants {queries}; re-bless",
                roster.queries.len()
            ));
        }
        let g = build_stream(roster.stream_seed, scale, ctx.seed);
        Ok(Inputs { g, delta, roster })
    }

    /// Every roster query against `OracleEngine` on the stream's first
    /// [`ORACLE_EDGES`] edges.
    pub fn check_oracle(&self, ledger: &mut Ledger) {
        let sub = prefix_stream(&self.g, ORACLE_EDGES);
        for rq in &self.roster.queries {
            ledger.check(agrees_with_oracle(&rq.query, &sub), || {
                format!("query {} disagrees with OracleEngine", rq.gen_seed)
            });
        }
    }
}

/// The query finished inside its budget with exactly the golden counts.
pub fn check_golden(ledger: &mut Ledger, rq: &RosterQuery, s: &EngineStats) {
    let id = rq.gen_seed;
    ledger.check(!s.budget_exhausted, || {
        format!("query {id} exhausted its search budget")
    });
    ledger.check(
        (s.occurred, s.expired) == (rq.golden.occurred, rq.golden.expired),
        || {
            format!(
                "query {id}: counts ({}, {}) differ from golden ({}, {})",
                s.occurred, s.expired, rq.golden.occurred, rq.golden.expired
            )
        },
    );
}

/// A query resident from the first event to the drained end of the stream
/// has seen every embedding it reported expire.
pub fn check_drained(ledger: &mut Ledger, rq: &RosterQuery, s: &EngineStats) {
    ledger.check(s.occurred == s.expired, || {
        format!(
            "query {}: occurred {} != expired {} at drain",
            rq.gen_seed, s.occurred, s.expired
        )
    });
}
