//! Unbuffered synchronous (CSP-style) channel.
//!
//! A write completes only when a reader has consumed the value, and a read
//! completes only when a writer has produced one — the rendezvous of CSP,
//! one of the models of computation the single-source methodology supports
//! (Herrera et al., "Modeling of CSP, KPN and SR systems with SystemC").
//!
//! The channel is intended for exactly one writer and one reader process.

use std::cell::RefCell;
use std::rc::Rc;

use scperf_obs::{Payload, Sym};

use crate::event::Event;
use crate::process::ProcCtx;
use crate::sim::Simulator;
use crate::state::{bump, ChanStats};

struct RendezvousInner<T> {
    name: String,
    /// The channel name interned in the kernel's symbol table.
    name_sym: Sym,
    slot: RefCell<Option<T>>,
    data_ev: Event,
    consumed_ev: Event,
    stats: Rc<ChanStats>,
}

/// A cloneable handle to a rendezvous channel. Create with
/// [`Simulator::rendezvous`].
pub struct Rendezvous<T> {
    inner: Rc<RendezvousInner<T>>,
}

impl<T> Clone for Rendezvous<T> {
    fn clone(&self) -> Rendezvous<T> {
        Rendezvous {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl Simulator {
    /// Creates a rendezvous (unbuffered, fully synchronous) channel.
    pub fn rendezvous<T: std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
    ) -> Rendezvous<T> {
        let name = name.into();
        let data_ev = self.event(format!("{name}.data"));
        let consumed_ev = self.event(format!("{name}.consumed"));
        let (name_sym, stats) = self
            .shared()
            .with_state(|st| (st.interner.intern(&name), st.register_chan_stats(&name)));
        Rendezvous {
            inner: Rc::new(RendezvousInner {
                name,
                name_sym,
                slot: RefCell::new(None),
                data_ev,
                consumed_ev,
                stats,
            }),
        }
    }
}

impl<T: std::fmt::Debug + 'static> Rendezvous<T> {
    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Offers `value` and blocks until the reader has consumed it.
    pub fn write(&self, ctx: &mut ProcCtx, value: T) {
        // Wait for the slot to be free (a previous offer still pending).
        let mut value = Some(value);
        loop {
            let placed = {
                let mut slot = self.inner.slot.borrow_mut();
                if slot.is_none() {
                    let v = value.take().expect("value still pending");
                    // Snapshot the value only when tracing is live — the
                    // legacy path formatted a `String` for every write.
                    let payload = ctx.shared.tracing().then(|| Payload::capture(&v));
                    *slot = Some(v);
                    Some(payload)
                } else {
                    None
                }
            };
            match placed {
                Some(payload) => {
                    bump(&self.inner.stats.writes, 1);
                    if let Some(payload) = payload {
                        ctx.shared.with_state(|st| {
                            let label = st.labels.rendezvous_write;
                            st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                        });
                    }
                    self.inner.data_ev.notify_delta();
                    break;
                }
                None => ctx.block_on(&self.inner.consumed_ev, &self.inner.stats),
            }
        }
        // Block until the reader takes the value (the rendezvous itself).
        while self.inner.slot.borrow().is_some() {
            ctx.block_on(&self.inner.consumed_ev, &self.inner.stats);
        }
    }

    /// Blocks until a writer offers a value, consumes it and releases the
    /// writer.
    pub fn read(&self, ctx: &mut ProcCtx) -> T {
        loop {
            let taken = self.inner.slot.borrow_mut().take();
            match taken {
                Some(v) => {
                    bump(&self.inner.stats.reads, 1);
                    if ctx.shared.tracing() {
                        let payload = Payload::capture(&v);
                        ctx.shared.with_state(|st| {
                            let label = st.labels.rendezvous_read;
                            st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                        });
                    }
                    self.inner.consumed_ev.notify_delta();
                    return v;
                }
                None => ctx.block_on(&self.inner.data_ev, &self.inner.stats),
            }
        }
    }
}

impl<T> std::fmt::Debug for Rendezvous<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rendezvous")
            .field("name", &self.inner.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use std::sync::mpsc;

    #[test]
    fn write_blocks_until_read() {
        let mut sim = Simulator::new();
        let ch = sim.rendezvous::<u32>("r");
        let (w, r) = (ch.clone(), ch);
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        sim.spawn("w", move |ctx| {
            w.write(ctx, 11);
            tx.send(("write done", ctx.now())).unwrap();
        });
        sim.spawn("r", move |ctx| {
            ctx.wait(Time::ns(20));
            let v = r.read(ctx);
            tx2.send(("read done", ctx.now())).unwrap();
            assert_eq!(v, 11);
        });
        sim.run().unwrap();
        let got: Vec<_> = rx.try_iter().collect();
        // The reader consumes at 20ns; the writer can only complete after.
        assert_eq!(got[0].0, "read done");
        assert!(got[1].1 >= Time::ns(20));
    }

    #[test]
    fn read_blocks_until_write() {
        let mut sim = Simulator::new();
        let ch = sim.rendezvous::<u32>("r");
        let (w, r) = (ch.clone(), ch);
        sim.spawn("r", move |ctx| {
            let v = r.read(ctx);
            assert_eq!(v, 5);
            assert!(ctx.now() >= Time::ns(30));
        });
        sim.spawn("w", move |ctx| {
            ctx.wait(Time::ns(30));
            w.write(ctx, 5);
        });
        sim.run().unwrap();
    }

    #[test]
    fn repeated_rendezvous_preserves_order() {
        let mut sim = Simulator::new();
        let ch = sim.rendezvous::<u32>("r");
        let (w, r) = (ch.clone(), ch);
        let (tx, rx) = mpsc::channel();
        sim.spawn("w", move |ctx| {
            for i in 0..5 {
                w.write(ctx, i);
            }
        });
        sim.spawn("r", move |ctx| {
            for _ in 0..5 {
                tx.send(r.read(ctx)).unwrap();
            }
        });
        sim.run().unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }
}
