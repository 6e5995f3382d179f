//! Pluggable trace sinks.
//!
//! The kernel hands every [`TraceEvent`] to a boxed [`TraceSink`];
//! [`MemorySink`] is the default in-memory implementation, storing
//! events in preallocated segments with an optional ring bound so
//! long-running simulations keep only the most recent window.

use std::collections::VecDeque;

use crate::event::TraceEvent;
use crate::intern::Interner;

/// Receives trace events as they happen.
///
/// The interner is passed on every call so streaming sinks (writers,
/// aggregators) can resolve symbols without owning the table; an
/// in-memory sink can ignore it and resolve at drain time.
pub trait TraceSink: Send {
    /// Records one event. Called while the kernel state is borrowed, so
    /// it must not re-enter the simulator.
    fn record(&mut self, interner: &Interner, event: &TraceEvent);

    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) {}

    /// Downcast hook so the kernel can drain the default sink.
    fn as_memory(&mut self) -> Option<&mut MemorySink> {
        None
    }
}

const SEGMENT_EVENTS: usize = 4096;

/// Segmented in-memory event buffer.
///
/// Events append into fixed-size preallocated segments, so recording
/// never copies old events (unlike a growing `Vec`'s realloc). With a
/// ring bound, whole oldest segments are discarded once the bound is
/// exceeded; [`MemorySink::dropped`] counts discarded events.
#[derive(Debug)]
pub struct MemorySink {
    segments: VecDeque<Vec<TraceEvent>>,
    max_events: Option<usize>,
    seg_capacity: usize,
    len: usize,
    dropped: u64,
}

impl MemorySink {
    /// Unbounded sink.
    pub fn new() -> MemorySink {
        MemorySink {
            segments: VecDeque::new(),
            max_events: None,
            seg_capacity: SEGMENT_EVENTS,
            len: 0,
            dropped: 0,
        }
    }

    /// Ring sink keeping at most `max_events` events (eviction
    /// granularity is one segment, sized at a quarter of the bound so a
    /// small bound is still honored).
    pub fn ring(max_events: usize) -> MemorySink {
        let max_events = max_events.max(1);
        MemorySink {
            max_events: Some(max_events),
            seg_capacity: (max_events / 4).clamp(16, SEGMENT_EVENTS).min(max_events),
            ..MemorySink::new()
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events discarded by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.len = 0;
        let mut out = Vec::new();
        for seg in self.segments.drain(..) {
            out.extend(seg);
        }
        out
    }
}

impl Default for MemorySink {
    fn default() -> MemorySink {
        MemorySink::new()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, _interner: &Interner, event: &TraceEvent) {
        let need_segment = self
            .segments
            .back()
            .map(|s| s.len() == self.seg_capacity)
            .unwrap_or(true);
        if need_segment {
            self.segments
                .push_back(Vec::with_capacity(self.seg_capacity));
        }
        self.segments
            .back_mut()
            .expect("segment present")
            .push(event.clone());
        self.len += 1;
        if let Some(max) = self.max_events {
            while self.len > max && self.segments.len() > 1 {
                let evicted = self.segments.pop_front().expect("front segment");
                self.len -= evicted.len();
                self.dropped += evicted.len() as u64;
            }
        }
    }

    fn as_memory(&mut self) -> Option<&mut MemorySink> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Sym;
    use crate::value::Payload;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            time_ps: i,
            delta: i,
            pid: 0,
            label: Sym::NONE,
            chan: Sym::NONE,
            payload: Payload::Int(i as i64),
        }
    }

    #[test]
    fn unbounded_sink_keeps_everything_in_order() {
        let mut s = MemorySink::new();
        let interner = Interner::new();
        for i in 0..10_000 {
            s.record(&interner, &ev(i));
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.dropped(), 0);
        let events = s.drain();
        assert_eq!(events.len(), 10_000);
        assert!(events
            .iter()
            .enumerate()
            .all(|(i, e)| e.time_ps == i as u64));
        assert!(s.is_empty());
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let mut s = MemorySink::ring(SEGMENT_EVENTS);
        let interner = Interner::new();
        let total = 3 * SEGMENT_EVENTS as u64 + 17;
        for i in 0..total {
            s.record(&interner, &ev(i));
        }
        assert!(s.len() <= 2 * SEGMENT_EVENTS);
        assert_eq!(s.len() as u64 + s.dropped(), total);
        let events = s.drain();
        // Newest event must survive; retained events are contiguous.
        assert_eq!(events.last().unwrap().time_ps, total - 1);
        let first = events.first().unwrap().time_ps;
        assert!(events
            .iter()
            .enumerate()
            .all(|(i, e)| e.time_ps == first + i as u64));
    }

    #[test]
    fn small_ring_bound_is_honored() {
        let mut s = MemorySink::ring(1024);
        let interner = Interner::new();
        for i in 0..20_000 {
            s.record(&interner, &ev(i));
        }
        assert!(s.len() <= 1024, "kept {} > bound", s.len());
        assert_eq!(s.len() as u64 + s.dropped(), 20_000);
        assert_eq!(s.drain().last().unwrap().time_ps, 19_999);
    }
}
