//! Signal channel with `sc_signal` semantics: writes are committed in the
//! update phase and a value-changed event fires one delta later.

use std::cell::RefCell;
use std::rc::Rc;

use scperf_obs::{Payload, Sym};

use crate::event::Event;
use crate::process::ProcCtx;
use crate::sim::Simulator;
use crate::state::{bump, ChanStats, KernelState, UpdateHook};

struct SignalBuf<T> {
    current: T,
    next: Option<T>,
}

struct SignalInner<T> {
    name: String,
    /// The signal name interned in the kernel's symbol table.
    name_sym: Sym,
    buf: RefCell<SignalBuf<T>>,
    changed_ev: Event,
    stats: Rc<ChanStats>,
}

impl<T: Clone + PartialEq + std::fmt::Debug + 'static> UpdateHook for SignalInner<T> {
    fn update(&self, st: &mut KernelState) {
        let mut buf = self.buf.borrow_mut();
        if let Some(next) = buf.next.take() {
            if next != buf.current {
                buf.current = next;
                // Snapshot the committed value only when a sink is live;
                // the legacy path formatted a `String` on every commit.
                let payload = st.tracing_enabled().then(|| Payload::capture(&buf.current));
                drop(buf);
                st.notify_event_delta(self.changed_ev.id);
                if let Some(payload) = payload {
                    let label = st.labels.signal_update;
                    st.record_event(None, label, self.name_sym, payload);
                }
            }
        }
    }
}

/// A cloneable handle to a signal (the analogue of `sc_signal<T>`).
/// Create with [`Simulator::signal`].
///
/// Reads never block and always return the *committed* value; a write only
/// becomes visible after the update phase of the delta in which it was
/// performed. When several processes write the same signal in one delta,
/// the last write (in execution order) wins — as in SystemC, well-formed
/// models have a single driver per signal.
pub struct Signal<T> {
    inner: Rc<SignalInner<T>>,
    hook_id: usize,
}

impl<T> Clone for Signal<T> {
    fn clone(&self) -> Signal<T> {
        Signal {
            inner: Rc::clone(&self.inner),
            hook_id: self.hook_id,
        }
    }
}

impl Simulator {
    /// Creates a signal initialized to `initial`.
    pub fn signal<T>(&mut self, name: impl Into<String>, initial: T) -> Signal<T>
    where
        T: Clone + PartialEq + std::fmt::Debug + 'static,
    {
        let name = name.into();
        let changed_ev = self.event(format!("{name}.changed"));
        let shared = Rc::clone(self.shared());
        let (name_sym, stats) =
            shared.with_state(|st| (st.interner.intern(&name), st.register_chan_stats(&name)));
        let inner = Rc::new(SignalInner {
            name,
            name_sym,
            buf: RefCell::new(SignalBuf {
                current: initial,
                next: None,
            }),
            changed_ev,
            stats,
        });
        let hook_id = shared
            .with_state(|st| st.register_update_hook(Rc::clone(&inner) as Rc<dyn UpdateHook>));
        Signal { inner, hook_id }
    }
}

impl<T: Clone + PartialEq + std::fmt::Debug + 'static> Signal<T> {
    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The committed value.
    pub fn read(&self) -> T {
        bump(&self.inner.stats.reads, 1);
        self.inner.buf.borrow().current.clone()
    }

    /// Schedules `value` to be committed in the update phase of the current
    /// delta cycle.
    pub fn write(&self, ctx: &mut ProcCtx, value: T) {
        bump(&self.inner.stats.writes, 1);
        self.inner.buf.borrow_mut().next = Some(value);
        ctx.shared.with_state(|st| st.request_update(self.hook_id));
    }

    /// The event notified (delta) whenever the committed value changes.
    pub fn value_changed_event(&self) -> &Event {
        &self.inner.changed_ev
    }

    /// Blocks the calling process until the committed value changes
    /// (testbench convenience; user processes under the paper's methodology
    /// communicate through FIFOs and rendezvous channels instead).
    pub fn wait_value_change(&self, ctx: &mut ProcCtx) -> T {
        ctx.wait_event(&self.inner.changed_ev);
        self.read()
    }
}

impl<T> std::fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("name", &self.inner.name)
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
    fn write_commits_at_update_phase() {
        let mut sim = Simulator::new();
        let s = sim.signal("s", 0_u32);
        let (sw, sr) = (s.clone(), s.clone());
        sim.spawn("w", move |ctx| {
            sw.write(ctx, 5);
            assert_eq!(sw.read(), 0, "write must not be visible before update");
            ctx.wait(Time::ZERO);
            assert_eq!(sw.read(), 5);
        });
        sim.run().unwrap();
        assert_eq!(sr.read(), 5);
    }

    #[test]
    fn value_changed_event_fires_once_per_change() {
        let mut sim = Simulator::new();
        let s = sim.signal("s", 0_u32);
        let (sw, sr) = (s.clone(), s.clone());
        let (tx, rx) = mpsc::channel();
        sim.spawn("listener", move |ctx| {
            let v = sr.wait_value_change(ctx);
            tx.send(v).unwrap();
        });
        sim.spawn("driver", move |ctx| {
            ctx.wait(Time::ns(5));
            sw.write(ctx, 0); // no change: must not wake the listener
            ctx.wait(Time::ns(5));
            sw.write(ctx, 9);
        });
        sim.run().unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn last_writer_in_delta_wins() {
        let mut sim = Simulator::new();
        let s = sim.signal("s", 0_u32);
        let s1 = s.clone();
        let s2 = s.clone();
        let sr = s.clone();
        sim.spawn("a", move |ctx| s1.write(ctx, 1));
        sim.spawn("b", move |ctx| s2.write(ctx, 2));
        sim.run().unwrap();
        assert_eq!(sr.read(), 2);
    }

    #[test]
    fn signal_update_is_traced() {
        let mut sim = SimOptions::new().tracing(TraceMode::Unbounded).build();
        let s = sim.signal("sig", false);
        let sw = s.clone();
        sim.spawn("w", move |ctx| sw.write(ctx, true));
        sim.run().unwrap();
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "signal.update");
        assert!(trace[0].detail.contains("sig=true"));
    }
}
