//! Bounded blocking FIFO channel with `sc_fifo` semantics.
//!
//! Values written in one delta cycle become visible to readers only after
//! the update phase, and space freed by reads becomes visible to writers
//! only after the update phase — exactly the OSCI `sc_fifo` protocol. This
//! is what keeps an untimed model deterministic regardless of the order in
//! which runnable processes execute within a delta.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use scperf_obs::{Payload, Sym};

use crate::event::Event;
use crate::process::ProcCtx;
use crate::sim::Simulator;
use crate::state::{bump, ChanStats, KernelState, UpdateHook};

struct FifoBuf<T> {
    q: VecDeque<T>,
    /// Number of committed (readable) items at the front of `q`.
    readable: usize,
    /// Items written since the last update phase.
    written: usize,
    /// Items read since the last update phase.
    read: usize,
}

struct FifoInner<T> {
    name: String,
    /// The channel name interned in the kernel's symbol table.
    name_sym: Sym,
    capacity: usize,
    buf: RefCell<FifoBuf<T>>,
    data_ev: Event,
    space_ev: Event,
    stats: Rc<ChanStats>,
}

impl<T: std::fmt::Debug> UpdateHook for FifoInner<T> {
    fn update(&self, st: &mut KernelState) {
        let mut buf = self.buf.borrow_mut();
        buf.readable = buf.q.len();
        if buf.written > 0 {
            buf.written = 0;
            st.notify_event_delta(self.data_ev.id);
        }
        if buf.read > 0 {
            buf.read = 0;
            st.notify_event_delta(self.space_ev.id);
        }
    }
}

/// A cloneable handle to a bounded blocking FIFO (the analogue of
/// `sc_fifo<T>`). Create with [`Simulator::fifo`].
///
/// Reads block while the FIFO is empty; writes block while it is full.
/// Handles are cheap to clone; typically one clone goes to the producer and
/// one to the consumer.
///
/// Like the simulator it belongs to, a handle is `!Send`; moving one to
/// another thread does not compile:
///
/// ```compile_fail
/// let mut sim = scperf_kernel::Simulator::new();
/// let fifo = sim.fifo::<u32>("data", 1);
/// std::thread::spawn(move || fifo.capacity());
/// ```
pub struct Fifo<T> {
    inner: Rc<FifoInner<T>>,
    hook_id: usize,
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Fifo<T> {
        Fifo {
            inner: Rc::clone(&self.inner),
            hook_id: self.hook_id,
        }
    }
}

impl Simulator {
    /// Creates a bounded FIFO channel with space for `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`Simulator::rendezvous`] for
    /// unbuffered synchronous communication).
    pub fn fifo<T: std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
    ) -> Fifo<T> {
        assert!(capacity > 0, "fifo capacity must be at least 1");
        let name = name.into();
        let data_ev = self.event(format!("{name}.data"));
        let space_ev = self.event(format!("{name}.space"));
        let shared = Rc::clone(self.shared());
        let (name_sym, stats) =
            shared.with_state(|st| (st.interner.intern(&name), st.register_chan_stats(&name)));
        let inner = Rc::new(FifoInner {
            name,
            name_sym,
            capacity,
            buf: RefCell::new(FifoBuf {
                q: VecDeque::with_capacity(capacity),
                readable: 0,
                written: 0,
                read: 0,
            }),
            data_ev,
            space_ev,
            stats,
        });
        let hook_id = shared
            .with_state(|st| st.register_update_hook(Rc::clone(&inner) as Rc<dyn UpdateHook>));
        Fifo { inner, hook_id }
    }
}

impl<T: std::fmt::Debug + 'static> Fifo<T> {
    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The channel's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of committed items currently readable.
    pub fn num_available(&self) -> usize {
        let buf = self.inner.buf.borrow();
        buf.readable - buf.read
    }

    /// Number of free slots visible to writers.
    pub fn num_free(&self) -> usize {
        let buf = self.inner.buf.borrow();
        self.inner.capacity - buf.readable - buf.written
    }

    /// Blocking read: suspends the calling process until a committed value
    /// is available (the analogue of `sc_fifo::read`).
    pub fn read(&self, ctx: &mut ProcCtx) -> T {
        loop {
            let taken = {
                let mut buf = self.inner.buf.borrow_mut();
                if buf.readable > buf.read {
                    let v = buf.q.pop_front().expect("readable item present");
                    buf.read += 1;
                    Some(v)
                } else {
                    None
                }
            };
            match taken {
                Some(v) => {
                    bump(&self.inner.stats.reads, 1);
                    // Capture the payload only when a sink is installed:
                    // with tracing off the read path performs no
                    // allocation at all.
                    let payload = ctx.shared.tracing().then(|| Payload::capture(&v));
                    ctx.shared.with_state(|st| {
                        st.request_update(self.hook_id);
                        if let Some(payload) = payload {
                            let label = st.labels.fifo_read;
                            st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                        }
                    });
                    return v;
                }
                None => ctx.block_on(&self.inner.data_ev, &self.inner.stats),
            }
        }
    }

    /// Blocking write: suspends the calling process until space is free
    /// (the analogue of `sc_fifo::write`).
    pub fn write(&self, ctx: &mut ProcCtx, value: T) {
        let mut value = Some(value);
        loop {
            let wrote = {
                let mut buf = self.inner.buf.borrow_mut();
                if self.inner.capacity - buf.readable - buf.written > 0 {
                    let v = value.take().expect("value still pending");
                    // Only snapshot the value when tracing is live — the
                    // legacy path built a `String` here unconditionally.
                    let payload = ctx.shared.tracing().then(|| Payload::capture(&v));
                    buf.q.push_back(v);
                    buf.written += 1;
                    Some((payload, buf.q.len() as u64))
                } else {
                    None
                }
            };
            match wrote {
                Some((payload, depth)) => {
                    bump(&self.inner.stats.writes, 1);
                    ctx.shared.with_state(|st| {
                        st.request_update(self.hook_id);
                        if st.attribution {
                            let max = &self.inner.stats.max_depth;
                            max.set(max.get().max(depth));
                        }
                        if let Some(payload) = payload {
                            let label = st.labels.fifo_write;
                            st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                        }
                    });
                    return;
                }
                None => ctx.block_on(&self.inner.space_ev, &self.inner.stats),
            }
        }
    }

    /// Non-blocking read; `None` when no committed value is available.
    pub fn try_read(&self, ctx: &mut ProcCtx) -> Option<T> {
        let taken = {
            let mut buf = self.inner.buf.borrow_mut();
            if buf.readable > buf.read {
                let v = buf.q.pop_front().expect("readable item present");
                buf.read += 1;
                Some(v)
            } else {
                None
            }
        };
        if taken.is_some() {
            bump(&self.inner.stats.reads, 1);
            ctx.shared.with_state(|st| st.request_update(self.hook_id));
        }
        taken
    }

    /// The event notified (delta) when new data becomes readable.
    pub fn data_written_event(&self) -> &Event {
        &self.inner.data_ev
    }
}

impl<T> std::fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fifo")
            .field("name", &self.inner.name)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimOptions, TraceMode};
    use crate::time::Time;
    use std::sync::mpsc;

    #[test]
    fn values_pass_in_order() {
        let mut sim = Simulator::new();
        let f = sim.fifo::<u32>("f", 2);
        let (w, r) = (f.clone(), f);
        sim.spawn("w", move |ctx| {
            for i in 0..10 {
                w.write(ctx, i);
            }
        });
        let (tx, rx) = mpsc::channel();
        sim.spawn("r", move |ctx| {
            for _ in 0..10 {
                tx.send(r.read(ctx)).unwrap();
            }
        });
        sim.run().unwrap();
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn write_blocks_when_full() {
        let mut sim = Simulator::new();
        let f = sim.fifo::<u32>("f", 1);
        let (w, r) = (f.clone(), f);
        let (tx, rx) = mpsc::channel();
        sim.spawn("w", move |ctx| {
            w.write(ctx, 1);
            w.write(ctx, 2); // blocks until reader drains
        });
        sim.spawn("r", move |ctx| {
            ctx.wait(Time::ns(50));
            tx.send((r.read(ctx), ctx.now())).unwrap();
            tx.send((r.read(ctx), ctx.now())).unwrap();
        });
        sim.run().unwrap();
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert!(got[0].1 >= Time::ns(50));
    }

    #[test]
    fn same_delta_write_not_visible_until_update() {
        // Reader polls with try_read in the same delta the writer writes:
        // sc_fifo semantics say it must see nothing yet.
        let mut sim = Simulator::new();
        let f = sim.fifo::<u32>("f", 4);
        let (w, r) = (f.clone(), f.clone());
        let (tx, rx) = mpsc::channel();
        sim.spawn("w", move |ctx| {
            w.write(ctx, 7);
            // keep the process alive into the next delta so the probe can run
            ctx.wait(Time::ZERO);
        });
        sim.spawn("probe", move |ctx| {
            // runs in the same evaluate phase as the write (pid order: w first)
            let same_delta = r.try_read(ctx);
            tx.send(same_delta).unwrap();
            ctx.wait(Time::ZERO);
            let next = r.try_read(ctx);
            tx.send(next).unwrap();
        });
        sim.run().unwrap();
        let got: Vec<Option<u32>> = rx.try_iter().collect();
        assert_eq!(got, vec![None, Some(7)]);
    }

    #[test]
    fn num_available_and_free_track_commits() {
        let mut sim = Simulator::new();
        let f = sim.fifo::<u8>("f", 3);
        let w = f.clone();
        let probe = f.clone();
        sim.spawn("w", move |ctx| {
            assert_eq!(w.num_free(), 3);
            w.write(ctx, 1);
            assert_eq!(w.num_free(), 2);
            assert_eq!(w.num_available(), 0); // not committed yet
            ctx.wait(Time::ZERO);
            assert_eq!(w.num_available(), 1);
        });
        sim.run().unwrap();
        assert_eq!(probe.num_available(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let mut sim = Simulator::new();
        let _ = sim.fifo::<u8>("bad", 0);
    }

    #[test]
    fn tracing_records_channel_ops() {
        let mut sim = SimOptions::new().tracing(TraceMode::Unbounded).build();
        let f = sim.fifo::<u32>("ch", 1);
        let (w, r) = (f.clone(), f);
        sim.spawn("w", move |ctx| w.write(ctx, 9));
        sim.spawn("r", move |ctx| {
            let _ = r.read(ctx);
        });
        sim.run().unwrap();
        let trace = sim.take_trace();
        let labels: Vec<&str> = trace.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["fifo.write", "fifo.read"]);
        assert!(trace[0].detail.contains("ch=9"));
    }
}
