//! The flight recorder: a bounded ring of recently-completed request
//! timelines.
//!
//! Every resolved request's [`Trace`] is pushed here by the service; the
//! newest `capacity` traces win. `GET /trace/<id>` serves them as JSON,
//! anomalous ones (panic, shed, deadline exceeded) flagged as such.

use crate::span::Trace;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A bounded ring of completed request traces, queryable by request id.
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<VecDeque<Arc<Trace>>>,
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` completed traces.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { cap: capacity.max(1), ring: Mutex::new(VecDeque::new()) }
    }

    /// Record a completed request's trace, evicting the oldest at capacity.
    pub fn push(&self, trace: Arc<Trace>) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Fetch a completed request's trace by service id.
    pub fn get(&self, id: u64) -> Option<Arc<Trace>> {
        let ring = self.ring.lock().expect("flight ring poisoned");
        ring.iter().rev().find(|t| t.id() == id).cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained request ids, oldest first.
    pub fn ids(&self) -> Vec<u64> {
        self.ring.lock().expect("flight ring poisoned").iter().map(|t| t.id()).collect()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").field("cap", &self.cap).field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn ring_retains_the_newest_traces_and_finds_by_id() {
        let recorder = FlightRecorder::new(3);
        let anchor = Instant::now();
        for id in 0..5u64 {
            recorder.push(Arc::new(Trace::new(id, anchor)));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.ids(), vec![2, 3, 4]);
        assert!(recorder.get(1).is_none(), "aged out");
        assert_eq!(recorder.get(4).map(|t| t.id()), Some(4));
    }
}
