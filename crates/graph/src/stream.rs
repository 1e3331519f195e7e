//! The event stream derived from a temporal graph and a window `δ`.
//!
//! Problem statement (§II): for window `δ` and current time `t`, edges with
//! timestamp `≤ t − δ` have expired; the alive interval of an edge arriving
//! at `t_e` is `[t_e, t_e + δ)`. Algorithm 1 materializes this as the event
//! set `L = {(e, t, +), (e, t + δ, −)}` processed in chronological order;
//! expirations at a given instant precede arrivals at the same instant
//! (Example II.2: when `σ14` arrives at `t = 14` with `δ = 10`, `σ4` has
//! already left the window).
//!
//! # Delta batches
//!
//! Real temporal streams are bursty: many edges share a timestamp. Because
//! every edge's lifetime is exactly `δ`, the events at one instant `t` split
//! into two *homogeneous* groups — first every expiration (the edges that
//! arrived at `t − δ`, all of them), then every arrival (the edges with
//! timestamp `t`, all of them). [`EventQueue::batch_at`] and
//! [`EventQueue::batches`] expose these maximal same-`(time, kind)` runs as
//! [`EventBatch`]es so the engine can apply a whole group as one delta:
//! concatenating the batches in order reproduces [`EventQueue::events`]
//! exactly, so batch consumers see the same ordering semantics as serial
//! ones. Two invariants downstream layers rely on:
//!
//! * a batch is *complete*: every stream edge whose arrival timestamp equals
//!   the batch's arrival timestamp is in the batch (arrivals trivially;
//!   expirations because lifetimes are uniform), which lets consumers test
//!   batch membership of an alive edge by timestamp alone;
//! * events inside a batch are sorted by [`EdgeKey`], matching the serial
//!   tie-break, so per-pair arrival order (and hence expiry order) is
//!   unchanged.

use crate::data::{EdgeKey, TemporalGraph};
use crate::error::GraphError;
use crate::time::Ts;
use serde::{Deserialize, Serialize};

/// Arrival (`+`) or expiration (`−`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Edge leaves the window. Ordered before `Insert` at equal times.
    Delete,
    /// Edge enters the window.
    Insert,
}

/// One stream event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// When the event fires.
    pub at: Ts,
    /// Arrival or expiration.
    pub kind: EventKind,
    /// The edge concerned.
    pub edge: EdgeKey,
}

/// A maximal run of events sharing one `(timestamp, kind)` — the unit of
/// batched application (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventBatch<'a> {
    /// The instant every event in the batch fires at.
    pub at: Ts,
    /// Arrival or expiration (homogeneous across the batch).
    pub kind: EventKind,
    /// The events, sorted by edge key (the serial tie-break order).
    pub events: &'a [Event],
}

impl<'a> EventBatch<'a> {
    /// Number of events in the batch (always ≥ 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Batches are never empty; provided for clippy-idiomatic call sites.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The edge keys of the batch, in event order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.events.iter().map(|ev| ev.edge)
    }
}

/// The full chronological event list for a graph + window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EventQueue {
    events: Vec<Event>,
    delta: i64,
}

impl EventQueue {
    /// Builds the event list `L` of Algorithm 1 for window length `delta`.
    ///
    /// Returns [`GraphError::ExpiryOverflow`] when any `t + δ` leaves the
    /// finite timestamp domain: a saturated expiry would land several
    /// arrival instants on *one* expiration instant, silently merging
    /// expiry batches and voiding the complete-batch invariant above.
    /// Callers with epoch-sized timestamps (e.g. raw SNAP dumps) should
    /// rescale them first (`io::SnapOptions::rescale_epoch` does).
    pub fn new(g: &TemporalGraph, delta: i64) -> Result<EventQueue, GraphError> {
        if delta <= 0 {
            return Err(GraphError::NonPositiveWindow(delta));
        }
        let mut events = Vec::with_capacity(g.num_edges() * 2);
        for e in g.edges() {
            let expiry = e
                .time
                .checked_plus(delta)
                .ok_or(GraphError::ExpiryOverflow(e.time.raw(), delta))?;
            events.push(Event {
                at: e.time,
                kind: EventKind::Insert,
                edge: e.key,
            });
            events.push(Event {
                at: expiry,
                kind: EventKind::Delete,
                edge: e.key,
            });
        }
        // Delete < Insert at equal timestamps; key-order ties keep arrival
        // (and hence expiry) order deterministic. No two events share a
        // sort key (an edge has one arrival and one expiry), so the
        // in-place unstable sort produces the same order as a stable one
        // without its scratch buffer of half the event list.
        events.sort_unstable_by_key(|ev| (ev.at, ev.kind, ev.edge));
        Ok(EventQueue { events, delta })
    }

    /// The window length used to build this queue.
    #[inline]
    pub fn delta(&self) -> i64 {
        self.delta
    }

    /// All events in processing order.
    #[inline]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events (`2 |E(G)|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the stream is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates events.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// The maximal same-`(time, kind)` batch starting at event index
    /// `start`, or `None` when the stream is exhausted. Consuming
    /// `start + batch.len()` next reproduces the serial event order.
    pub fn batch_at(&self, start: usize) -> Option<EventBatch<'_>> {
        let first = self.events.get(start)?;
        let end = start
            + self.events[start..]
                .iter()
                .position(|ev| (ev.at, ev.kind) != (first.at, first.kind))
                .unwrap_or(self.events.len() - start);
        Some(EventBatch {
            at: first.at,
            kind: first.kind,
            events: &self.events[start..end],
        })
    }

    /// Iterates the delta batches in processing order (expirations before
    /// arrivals at equal instants, exactly as [`EventQueue::events`]).
    pub fn batches(&self) -> impl Iterator<Item = EventBatch<'_>> {
        let mut next = 0usize;
        std::iter::from_fn(move || {
            let b = self.batch_at(next)?;
            next += b.len();
            Some(b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::TemporalGraphBuilder;

    #[test]
    fn example_ii_2_ordering() {
        // Edges σ4 (t=4) and σ14 (t=14), δ = 10: σ4 must expire before σ14
        // arrives.
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(4, 0);
        let k4 = b.edge(v, v + 1, 4);
        let k14 = b.edge(v + 2, v + 3, 14);
        let g = b.build().unwrap();
        let q = EventQueue::new(&g, 10).unwrap();
        let evs = q.events();
        assert_eq!(evs.len(), 4);
        let pos_del4 = evs
            .iter()
            .position(|e| e.edge == k4 && e.kind == EventKind::Delete)
            .unwrap();
        let pos_ins14 = evs
            .iter()
            .position(|e| e.edge == k14 && e.kind == EventKind::Insert)
            .unwrap();
        assert_eq!(evs[pos_del4].at, Ts::new(14));
        assert!(pos_del4 < pos_ins14, "expiry precedes same-time arrival");
    }

    #[test]
    fn every_edge_appears_twice() {
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(3, 0);
        for t in 1..=5 {
            b.edge(v, v + 1, t);
            b.edge(v + 1, v + 2, t + 3);
        }
        let g = b.build().unwrap();
        let q = EventQueue::new(&g, 7).unwrap();
        assert_eq!(q.len(), 2 * g.num_edges());
        let inserts = q.iter().filter(|e| e.kind == EventKind::Insert).count();
        assert_eq!(inserts, g.num_edges());
        // Chronologically sorted.
        assert!(q.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn rejects_bad_window() {
        let g = TemporalGraphBuilder::new().build().unwrap();
        assert!(matches!(
            EventQueue::new(&g, 0).unwrap_err(),
            GraphError::NonPositiveWindow(0)
        ));
    }

    #[test]
    fn rejects_expiry_overflow_instead_of_merging_batches() {
        // Two distinct arrivals near Ts::MAX whose saturated expiries would
        // collapse onto one instant — construction must fail, not merge.
        let hi = i64::MAX - 3;
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(3, 0);
        b.edge(v, v + 1, hi);
        b.edge(v + 1, v + 2, hi + 1);
        let g = b.build().unwrap();
        match EventQueue::new(&g, 100).unwrap_err() {
            GraphError::ExpiryOverflow(t, d) => {
                assert_eq!(t, hi);
                assert_eq!(d, 100);
            }
            other => panic!("expected ExpiryOverflow, got {other:?}"),
        }
        // The largest window that still fits both expiries is accepted, and
        // the expiries stay distinct.
        let q = EventQueue::new(&g, 1).unwrap();
        let dels: Vec<Ts> = q
            .iter()
            .filter(|e| e.kind == EventKind::Delete)
            .map(|e| e.at)
            .collect();
        assert_eq!(dels.len(), 2);
        assert_ne!(dels[0], dels[1], "expiry instants must stay distinct");
    }

    #[test]
    fn batches_concatenate_to_the_serial_event_order() {
        // Bursty stream: several edges per timestamp, overlapping expiries.
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(5, 0);
        for (i, t) in [1, 1, 1, 3, 3, 4, 7, 7].iter().enumerate() {
            b.edge(v + (i as u32 % 4), v + 4, *t);
        }
        let g = b.build().unwrap();
        let q = EventQueue::new(&g, 2).unwrap();
        let concat: Vec<Event> = q.batches().flat_map(|b| b.events.iter().copied()).collect();
        assert_eq!(concat, q.events(), "batches must tile the serial order");
        // Each batch is homogeneous and internally key-sorted.
        for batch in q.batches() {
            assert!(!batch.is_empty());
            assert!(batch
                .events
                .iter()
                .all(|ev| ev.at == batch.at && ev.kind == batch.kind));
            assert!(batch.events.windows(2).all(|w| w[0].edge < w[1].edge));
        }
        // Batch boundaries are maximal: adjacent batches differ in (at, kind).
        let metas: Vec<(Ts, EventKind)> = q.batches().map(|b| (b.at, b.kind)).collect();
        assert!(metas.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn same_instant_puts_expirations_before_arrivals() {
        // δ = 2: the t=1 edges expire at t=3, where new edges also arrive.
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(3, 0);
        b.edge(v, v + 1, 1);
        b.edge(v, v + 2, 1);
        b.edge(v + 1, v + 2, 3);
        b.edge(v, v + 1, 3);
        let g = b.build().unwrap();
        let q = EventQueue::new(&g, 2).unwrap();
        let batches: Vec<_> = q.batches().collect();
        assert_eq!(batches.len(), 4);
        assert_eq!(
            (batches[0].at, batches[0].kind, batches[0].len()),
            (Ts::new(1), EventKind::Insert, 2)
        );
        assert_eq!(
            (batches[1].at, batches[1].kind, batches[1].len()),
            (Ts::new(3), EventKind::Delete, 2),
            "expirations precede same-instant arrivals"
        );
        assert_eq!(
            (batches[2].at, batches[2].kind, batches[2].len()),
            (Ts::new(3), EventKind::Insert, 2)
        );
        assert_eq!(
            (batches[3].at, batches[3].kind, batches[3].len()),
            (Ts::new(5), EventKind::Delete, 2)
        );
    }

    #[test]
    fn degenerate_all_edges_one_timestamp() {
        // Every edge at t=5: one arrival batch, one expiration batch.
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(4, 0);
        for i in 0..3u32 {
            b.edge(v + i, v + i + 1, 5);
        }
        let g = b.build().unwrap();
        let q = EventQueue::new(&g, 1).unwrap();
        let batches: Vec<_> = q.batches().collect();
        assert_eq!(batches.len(), 2);
        assert_eq!((batches[0].kind, batches[0].len()), (EventKind::Insert, 3));
        assert_eq!((batches[1].kind, batches[1].len()), (EventKind::Delete, 3));
        assert_eq!(batches[1].at, Ts::new(6));
        // Batch completeness: the expiration batch holds *all* edges whose
        // arrival timestamp is t − δ (the invariant batch consumers index by).
        let keys: Vec<EdgeKey> = batches[1].edges().collect();
        let mut expect: Vec<EdgeKey> = g.edges().iter().map(|e| e.key).collect();
        expect.sort();
        assert_eq!(keys, expect);
    }

    #[test]
    fn empty_stream_has_no_batches() {
        let g = TemporalGraphBuilder::new().build().unwrap();
        let q = EventQueue::new(&g, 3).unwrap();
        assert_eq!(q.batches().count(), 0);
        assert!(q.batch_at(0).is_none());
    }

    #[test]
    fn unique_timestamps_give_singleton_batches() {
        // The serial regime: every batch has exactly one event, so batched
        // processing degenerates to the pre-batch per-event behaviour.
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(2, 0);
        for t in [1, 4, 9, 12] {
            b.edge(v, v + 1, t);
        }
        let g = b.build().unwrap();
        let q = EventQueue::new(&g, 100).unwrap();
        assert!(q.batches().all(|b| b.len() == 1));
        assert_eq!(q.batches().count(), q.len());
    }

    #[test]
    fn expiry_order_equals_arrival_order_per_pair() {
        let mut b = TemporalGraphBuilder::new();
        let v = b.vertices(2, 0);
        let k1 = b.edge(v, v + 1, 1);
        let k2 = b.edge(v, v + 1, 1); // same timestamp, parallel
        let g = b.build().unwrap();
        let q = EventQueue::new(&g, 5).unwrap();
        let dels: Vec<EdgeKey> = q
            .iter()
            .filter(|e| e.kind == EventKind::Delete)
            .map(|e| e.edge)
            .collect();
        let ins: Vec<EdgeKey> = q
            .iter()
            .filter(|e| e.kind == EventKind::Insert)
            .map(|e| e.edge)
            .collect();
        assert_eq!(dels, ins);
        assert_eq!(ins, vec![k1, k2]);
    }
}
