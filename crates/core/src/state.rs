//! Enumeration states: a frontier entry is its rank and a pointer.
//!
//! An [`EnumState`] is what the GPQE frontier (a `BinaryHeap`) stores, so its
//! size is what every heap sift, every buffer doubling and every lossless cut
//! (`select_nth_unstable_by`) moves. It is 32 bytes: the three ranking keys —
//! confidence, the attached join path's length, the creation sequence — are
//! held inline, and the partial query sits behind a `Box`, boxed once when
//! the child survives verification and never moved again. Ranking never
//! follows the pointer: the join length is computed by the one constructor
//! and the fields are private, so it cannot go stale.
//!
//! The boxed `PartialQuery` is 120 bytes, and its list, HAVING and ORDER BY
//! slots are `Arc`s it shares with its parent and siblings: a child owns only
//! the slot its decision wrote. At the Fig. 10 settings a queued state costs
//! about 250 bytes of live heap in all.
//!
//! With the query inline (248 bytes), the frontier's buffer at the Fig. 10
//! budget was the largest block a run allocated, up to 1.94 MiB, and it cost
//! RSS through glibc's mmap threshold; at 32 bytes, and with the frontier
//! cut to a quarter above the remaining budget, it stays ≤ 128 KiB
//! (`docs/DRIVER.md`, "Frontier").

use duoquest_sql::PartialQuery;
use std::cmp::Ordering;

/// One state of the GPQE search: a partial query and its confidence score (the
/// cumulative product of the per-decision scores, paper §3.3.3).
#[derive(Debug, Clone)]
pub struct EnumState {
    confidence: f64,
    sequence: u64,
    /// `pq`'s join length, cached so ranking reads no pointer.
    join_len: u32,
    pq: Box<PartialQuery>,
}

impl EnumState {
    /// A state of `pq`, ranked by `confidence`, then by `pq`'s join length,
    /// then by `sequence` (its creation order).
    pub(crate) fn new(pq: Box<PartialQuery>, confidence: f64, sequence: u64) -> Self {
        let join_len = pq.join.as_ref().map_or(0, |j| j.join_length());
        let join_len = u32::try_from(join_len).unwrap_or(u32::MAX);
        EnumState { confidence, sequence, join_len, pq }
    }

    /// The root state: the empty partial query with confidence 1.
    pub fn root() -> Self {
        EnumState::new(Box::new(PartialQuery::empty()), 1.0, 0)
    }

    /// The partial query.
    pub fn pq(&self) -> &PartialQuery {
        &self.pq
    }

    /// Cumulative confidence in `[0, 1]`.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Monotone sequence number, the final tie-breaker of the order.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Join length of the attached join path (0 when no join path yet); used as
    /// the secondary ordering criterion (shorter join paths first, §3.3.4).
    pub fn join_length(&self) -> u32 {
        self.join_len
    }
}

impl PartialEq for EnumState {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EnumState {}

impl PartialOrd for EnumState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EnumState {
    /// Max-heap ordering: higher confidence first, then shorter join paths,
    /// then earlier creation (lower sequence number). Total: confidences
    /// compare by `f64::total_cmp`.
    fn cmp(&self, other: &Self) -> Ordering {
        self.confidence
            .total_cmp(&other.confidence)
            .then_with(|| other.join_len.cmp(&self.join_len))
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{ColumnId, ForeignKey, JoinEdge, JoinTree, TableId};
    use std::collections::BinaryHeap;

    fn state(confidence: f64, sequence: u64) -> EnumState {
        EnumState::new(Box::new(PartialQuery::empty()), confidence, sequence)
    }

    #[test]
    fn heap_pops_highest_confidence_first() {
        let mut heap = BinaryHeap::new();
        heap.push(state(0.2, 1));
        heap.push(state(0.7, 2));
        heap.push(state(0.35, 3));
        assert!((heap.pop().unwrap().confidence() - 0.7).abs() < 1e-12);
        assert!((heap.pop().unwrap().confidence() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn ties_break_by_sequence() {
        let mut heap = BinaryHeap::new();
        heap.push(state(0.5, 10));
        heap.push(state(0.5, 2));
        assert_eq!(heap.pop().unwrap().sequence(), 2);
    }

    #[test]
    fn shorter_join_paths_break_confidence_ties() {
        let joined = |edges: usize, sequence: u64| {
            let fk = |i: usize| JoinEdge {
                fk: ForeignKey { from: ColumnId::new(i, 1), to: ColumnId::new(i + 1, 0) },
            };
            let tables = (0..=edges).map(TableId).collect();
            let mut pq = PartialQuery::empty();
            pq.join = Some(JoinTree::new(tables, (0..edges).map(fk).collect()));
            EnumState::new(Box::new(pq), 0.5, sequence)
        };
        let mut heap = BinaryHeap::new();
        heap.push(joined(2, 1));
        heap.push(joined(1, 2));
        heap.push(state(0.5, 3));
        let order: Vec<_> = std::iter::from_fn(|| heap.pop())
            .map(|s| {
                assert_eq!(
                    s.join_length() as usize,
                    s.pq().join.as_ref().map_or(0, |j| j.join_length())
                );
                s.sequence()
            })
            .collect();
        assert_eq!(order, [3, 2, 1]);
    }

    #[test]
    fn root_state() {
        let r = EnumState::root();
        assert_eq!(r.confidence(), 1.0);
        assert_eq!(r.join_length(), 0);
        assert!(!r.pq().is_complete());
    }
}
