//! The sparse DCS adjacency index: the candidate *graph* the paper's
//! backtracking (§V, Algorithm 4) draws `C_M(u)` and `EC_M(e)` from.
//!
//! # Invariant
//!
//! A DCS **edge group** is a triple `(e, v_tail, v_head)` with at least one
//! admitted data edge. For every query edge `e` and every data vertex `v`
//! playing the tail or the head of `e`, the row `(e, end, v)` lists
//! `(opposite endpoint, GroupId)` for **exactly** the live groups at `v`,
//! strictly ascending by opposite endpoint; a group therefore appears
//! twice, in the tail row of `v_tail` and in the head row of `v_head`.
//! Rows that would be empty are absent. Each group keeps its admitted data
//! edges as `(EdgeKey, Ts)` records in arrival order — ascending `(Ts,
//! EdgeKey)`, the order of the window's pair bucket — so the edges inside
//! a time interval are one contiguous subslice, and the record count is
//! the group's multiplicity.
//!
//! # Upkeep and memory
//!
//! Rows change only where a group's multiplicity crosses zero (the
//! transitions at which `Dcs::apply` already seeds counter work); a record
//! list changes once per DCS edge delta. The index holds two row entries
//! per live group, one record per admitted pair, and one map slot per
//! non-empty row. Emptied row and record buffers are recycled, so the
//! number of allocations is the peak number of simultaneously non-empty
//! rows plus live groups. Nothing is sized by `|E(q)| · |V(g)|`.
//!
//! The index is derived state: it is never serialized and is rebuilt from
//! the window and the filter bank's membership (`Dcs::rebuild_index`)
//! after a restore.

use tcsm_graph::{EdgeKey, FxHashMap, QEdgeId, Ts, VertexId};

/// Which endpoint of a DAG edge a data vertex plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum End {
    /// The vertex is the image of `tail(e)`; its row lists head images.
    Tail,
    /// The vertex is the image of `head(e)`; its row lists tail images.
    Head,
}

/// Handle of a live edge group (stable while the group is live).
pub type GroupId = u32;

/// One row entry: the opposite endpoint and the group joining it.
pub type RowEntry = (VertexId, GroupId);

/// One admitted data edge of a group.
pub type Record = (EdgeKey, Ts);

#[derive(Default)]
pub(crate) struct AdjIndex {
    rows: FxHashMap<u64, Vec<RowEntry>>,
    /// Emptied row buffers awaiting reuse (capacity retained).
    spare_rows: Vec<Vec<RowEntry>>,
    /// Record lists by [`GroupId`]; slots on `free_groups` are empty.
    groups: Vec<Vec<Record>>,
    free_groups: Vec<GroupId>,
}

/// Row key. The query-edge and end bits sit *below* the vertex id so the
/// multiplicative Fx hash spreads the rows of one vertex across buckets.
#[inline]
fn key(e: QEdgeId, end: End, v: VertexId) -> u64 {
    debug_assert!(e < tcsm_graph::MAX_QUERY_DIM);
    ((v as u64) << 7) | ((e as u64) << 1) | (end == End::Head) as u64
}

/// Arrival order of records.
#[inline]
pub(crate) fn arrival(r: &Record) -> (Ts, EdgeKey) {
    (r.1, r.0)
}

impl AdjIndex {
    /// The row of `v` as the `end` of `e` (empty when no group is live).
    #[inline]
    pub(crate) fn row(&self, e: QEdgeId, end: End, v: VertexId) -> &[RowEntry] {
        self.rows.get(&key(e, end, v)).map_or(&[], Vec::as_slice)
    }

    /// The admitted data edges of a live group, in arrival order.
    #[inline]
    pub(crate) fn records(&self, gid: GroupId) -> &[Record] {
        &self.groups[gid as usize]
    }

    /// [`AdjIndex::records`] for an id that may be stale (the auditor's).
    pub(crate) fn try_records(&self, gid: GroupId) -> Option<&[Record]> {
        self.groups.get(gid as usize).map(Vec::as_slice)
    }

    /// The live group `(e, v_tail, v_head)`, if any.
    pub(crate) fn group_of(
        &self,
        e: QEdgeId,
        v_tail: VertexId,
        v_head: VertexId,
    ) -> Option<GroupId> {
        let row = self.row(e, End::Tail, v_tail);
        row.binary_search_by_key(&v_head, |&(w, _)| w)
            .ok()
            .map(|pos| row[pos].1)
    }

    /// Admits the data edge `rec` to the group `(e, v_tail, v_head)`,
    /// creating the group (and its two row entries) if it was not live.
    /// Returns true when the group was created.
    pub(crate) fn admit(
        &mut self,
        e: QEdgeId,
        v_tail: VertexId,
        v_head: VertexId,
        rec: Record,
    ) -> bool {
        let (gid, fresh) = match self.group_of(e, v_tail, v_head) {
            Some(gid) => (gid, false),
            None => {
                let gid = self.free_groups.pop().unwrap_or_else(|| {
                    self.groups.push(Vec::new());
                    (self.groups.len() - 1) as GroupId
                });
                self.insert_half(key(e, End::Tail, v_tail), v_head, gid);
                self.insert_half(key(e, End::Head, v_head), v_tail, gid);
                (gid, true)
            }
        };
        let records = &mut self.groups[gid as usize];
        // The arriving edge is the newest; only flips of older edges land
        // in the middle.
        let pos = match records.last() {
            Some(last) if arrival(last) > arrival(&rec) => {
                records.partition_point(|r| arrival(r) < arrival(&rec))
            }
            _ => records.len(),
        };
        debug_assert!(
            records.get(pos).is_none_or(|r| r.0 != rec.0),
            "record admitted twice"
        );
        records.insert(pos, rec);
        fresh
    }

    fn insert_half(&mut self, k: u64, other: VertexId, gid: GroupId) {
        let spare = &mut self.spare_rows;
        let row = self
            .rows
            .entry(k)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let pos = row.partition_point(|&(w, _)| w < other);
        debug_assert!(
            row.get(pos).is_none_or(|&(w, _)| w != other),
            "group inserted twice"
        );
        row.insert(pos, (other, gid));
    }

    /// Withdraws the data edge `rec` from the group `(e, v_tail, v_head)`,
    /// dropping the group (and its two row entries) when that empties it.
    /// Returns `None` when the group does not hold the edge, else whether
    /// the group was dropped.
    pub(crate) fn withdraw(
        &mut self,
        e: QEdgeId,
        v_tail: VertexId,
        v_head: VertexId,
        rec: Record,
    ) -> Option<bool> {
        let gid = self.group_of(e, v_tail, v_head)?;
        let records = &mut self.groups[gid as usize];
        let pos = records.binary_search_by_key(&arrival(&rec), arrival).ok()?;
        records.remove(pos);
        if !records.is_empty() {
            return Some(false);
        }
        self.free_groups.push(gid);
        self.remove_half(key(e, End::Tail, v_tail), v_head);
        self.remove_half(key(e, End::Head, v_head), v_tail);
        Some(true)
    }

    fn remove_half(&mut self, k: u64, other: VertexId) {
        let Some(row) = self.rows.get_mut(&k) else {
            debug_assert!(false, "removing a group from an absent row");
            return;
        };
        match row.binary_search_by_key(&other, |&(w, _)| w) {
            Ok(pos) => {
                row.remove(pos);
            }
            Err(_) => debug_assert!(false, "removing a group its row does not list"),
        }
        if row.is_empty() {
            if let Some(buf) = self.rows.remove(&k) {
                self.spare_rows.push(buf);
            }
        }
    }

    /// Forgets every group, keeping the buffers for reuse.
    pub(crate) fn clear(&mut self) {
        for (_, mut buf) in self.rows.drain() {
            buf.clear();
            self.spare_rows.push(buf);
        }
        self.free_groups.clear();
        for (gid, records) in self.groups.iter_mut().enumerate() {
            records.clear();
            self.free_groups.push(gid as GroupId);
        }
    }

    /// Total entries over all rows (two per live group).
    pub(crate) fn num_entries(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// Total records over all groups (one per admitted pair).
    pub(crate) fn num_records(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Entry + record capacity retained by live and recycled buffers.
    pub(crate) fn retained_capacity(&self) -> usize {
        let rows = self.rows.values().chain(&self.spare_rows);
        rows.map(Vec::capacity).sum::<usize>()
            + self.groups.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Every row, unordered: `(e, end, v, entries)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (QEdgeId, End, VertexId, &[RowEntry])> {
        self.rows.iter().map(|(&k, row)| {
            let end = if k & 1 == 1 { End::Head } else { End::Tail };
            (
                ((k >> 1) & 0x3f) as QEdgeId,
                end,
                (k >> 7) as VertexId,
                row.as_slice(),
            )
        })
    }

    /// Mutable access to one row, for the audit corpus's corruption hooks.
    pub(crate) fn row_mut(
        &mut self,
        e: QEdgeId,
        end: End,
        v: VertexId,
    ) -> Option<&mut Vec<RowEntry>> {
        self.rows.get_mut(&key(e, end, v))
    }
}
