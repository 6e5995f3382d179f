//! Predefined channels.
//!
//! Under the paper's single-source specification methodology (§2), processes
//! have no sensitivity lists and never touch events directly: *all*
//! inter-process interaction goes through predefined channels plus timed
//! waits. The kernel ships the three channel families the methodology's
//! models of computation need:
//!
//! * [`Fifo`] — bounded blocking FIFO (`sc_fifo` semantics, KPN-style),
//! * [`Signal`] — update-phase-committed state (`sc_signal` semantics, SR-style),
//! * [`Rendezvous`] — unbuffered synchronous channel (CSP-style).

mod fifo;
mod rendezvous;
mod signal;

pub use fifo::Fifo;
pub use rendezvous::Rendezvous;
pub use signal::Signal;
