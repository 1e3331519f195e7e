//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own code, around its calls into
//! each layer's public functions. Aggregates (`count`, `total_ns`,
//! `self_ns`) are exact over every span; the span list itself keeps only
//! the spans of every `stride`-th event so a multi-million-event run still
//! dumps a readable file. A span's self time is its duration minus the part
//! its child spans cover; spans of one thread nest and never overlap, so a
//! stack computes that online.

use crate::json::Json;
use std::time::Instant;

pub type NameId = usize;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: NameId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing stored span, −1 for a top-level span.
    pub parent: i64,
    /// The stream event (or step index) the span belongs to.
    pub event: u64,
}

struct Frame {
    name: NameId,
    start_ns: u64,
    /// Time covered by already-closed children.
    covered_ns: u64,
    stored: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    stride: u64,
    event: u64,
    sampled: bool,
}

impl Tracer {
    /// Keeps the spans of every `stride`-th event (aggregates stay exact).
    pub fn new(stride: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            spans: Vec::new(),
            stride: stride.max(1),
            event: 0,
            sampled: true,
        }
    }

    /// Registers (or finds) a span name.
    pub fn name(&mut self, name: &'static str) -> NameId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i;
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        self.names.len() - 1
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `t` on this tracer's time axis.
    #[inline]
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Tags the spans that follow with `event` and decides whether they are
    /// stored.
    #[inline]
    pub fn begin_event(&mut self, event: u64) {
        self.event = event;
        self.sampled = event.is_multiple_of(self.stride);
    }

    #[inline]
    pub fn enter_at(&mut self, name: NameId, t_ns: u64) {
        let stored = if self.sampled {
            let parent = self
                .stack
                .iter()
                .rev()
                .find_map(|f| f.stored)
                .map_or(-1, |i| i as i64);
            self.spans.push(Span {
                name,
                start_ns: t_ns,
                end_ns: t_ns,
                parent,
                event: self.event,
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        self.stack.push(Frame {
            name,
            start_ns: t_ns,
            covered_ns: 0,
            stored,
        });
    }

    #[inline]
    pub fn exit_at(&mut self, t_ns: u64) {
        let f = self.stack.pop().expect("exit without a matching enter");
        let total = t_ns.saturating_sub(f.start_ns);
        let agg = &mut self.aggs[f.name];
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(f.covered_ns);
        if let Some(i) = f.stored {
            self.spans[i].end_ns = t_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.covered_ns += total;
        }
    }

    /// A childless span over `[start_ns, end_ns)`.
    #[inline]
    pub fn leaf(&mut self, name: NameId, start_ns: u64, end_ns: u64) {
        self.enter_at(name, start_ns);
        self.exit_at(end_ns);
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or(Agg::default(), |i| self.aggs[i])
    }

    /// Σ self time of top-level spans equals Σ total time of top-level
    /// spans; the budget residual is the wall clock not under any of them.
    pub fn top_level_total_ns(&self, top_level: &[&str]) -> u64 {
        top_level.iter().map(|n| self.agg(n).total_ns).sum()
    }

    pub fn to_json(&self) -> (Json, Json) {
        let aggs = Json::Obj(
            self.names
                .iter()
                .zip(&self.aggs)
                .map(|(n, a)| {
                    (
                        n.to_string(),
                        Json::obj([
                            ("count", a.count.into()),
                            ("total_ns", a.total_ns.into()),
                            ("self_ns", a.self_ns.into()),
                        ]),
                    )
                })
                .collect(),
        );
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", self.names[s.name].into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        ("parent", Json::Num(s.parent as f64)),
                        ("event", s.event.into()),
                    ])
                })
                .collect(),
        );
        (aggs, spans)
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let mut t = Tracer::new(1);
        let (p, c, g) = (t.name("parent"), t.name("child"), t.name("grandchild"));
        t.begin_event(7);
        t.enter_at(p, 100);
        t.enter_at(c, 110); // child 110..150, with a grandchild 120..130
        t.enter_at(g, 120);
        t.exit_at(130);
        t.exit_at(150);
        t.leaf(c, 160, 180); // second child, uncovered gap 150..160
        t.exit_at(200);
        assert_eq!(
            t.agg("parent"),
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 40 - 20
            }
        );
        assert_eq!(
            t.agg("child"),
            Agg {
                count: 2,
                total_ns: 60,
                self_ns: 60 - 10
            }
        );
        assert_eq!(t.agg("grandchild").self_ns, 10);
        // Self times partition the root's wall clock.
        let total_self: u64 = ["parent", "child", "grandchild"]
            .iter()
            .map(|n| t.agg(n).self_ns)
            .sum();
        assert_eq!(total_self, 100);
        // Stored spans link to their stored parents.
        let parents: Vec<i64> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [-1, 0, 1, 0]);
        assert!(t.spans().iter().all(|s| s.event == 7));
    }

    #[test]
    fn unsampled_events_count_but_are_not_stored() {
        let mut t = Tracer::new(64);
        let n = t.name("x");
        for ev in 0..128 {
            t.begin_event(ev);
            t.leaf(n, ev * 10, ev * 10 + 5);
        }
        assert_eq!(t.agg("x").count, 128);
        assert_eq!(t.agg("x").total_ns, 128 * 5);
        assert_eq!(t.spans().len(), 2); // events 0 and 64
    }
}
