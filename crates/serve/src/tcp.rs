//! The TCP frontend: the same JSON-lines protocol on a listener
//! socket.
//!
//! Connections — not individual requests — are the unit of pooled work
//! here: each accepted connection becomes one worker-pool job that
//! reads request lines and answers them *inline* on that worker. This
//! bounds the service's total concurrency (simulations *and*
//! connection handling) by the one worker pool, with no
//! thread-per-connection growth, and means a saturated service refuses
//! new connections at accept time with a `queue_full` line instead of
//! accepting work it cannot start.
//!
//! Within a connection the protocol is strictly request/response in
//! order; concurrency comes from multiple connections (up to the
//! worker count) being served at once.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::render;
use crate::service::{Disposition, Service};
use crate::stdio::{read_line_bounded, LineRead};

/// A bound TCP server; [`TcpServer::run`] accepts until stopped.
pub struct TcpServer {
    listener: TcpListener,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.listener.local_addr())
            .finish_non_exhaustive()
    }
}

/// Stops a running [`TcpServer`] from another thread.
#[derive(Debug, Clone)]
pub struct StopHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl StopHandle {
    /// Signals the accept loop to stop and wakes it up.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The listener blocks in accept(); a throwaway connection wakes
        // it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:7077"`; port 0 picks a free
    /// port).
    ///
    /// # Errors
    ///
    /// Any `io::Error` from binding the listener.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<Service>) -> std::io::Result<TcpServer> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
            service,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener is bound")
    }

    /// A handle that can stop the accept loop.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            addr: self.local_addr(),
            stop: Arc::clone(&self.stop),
        }
    }

    /// Accepts connections until stopped (by a [`StopHandle`] or a
    /// `shutdown` op on any connection), then drains the service.
    pub fn run(self) {
        let stop = Arc::clone(&self.stop);
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if let Err((err, retry)) = self.service.admit(1) {
                let mut stream = stream;
                let _ = writeln!(stream, "{}", render::error(None, &err, retry));
                continue;
            }
            let service = Arc::clone(&self.service);
            let handle = self.stop_handle();
            let submitted = self
                .service
                .submit_job(move || handle_connection(&service, stream, &handle));
            if !submitted {
                break;
            }
        }
        self.service.drain();
    }
}

/// How often an idle connection wakes from its blocking read to check
/// for shutdown. An idle connection must not pin its worker forever —
/// graceful drain waits for every pool job, so handlers poll the stop
/// and drain flags at this interval and hang up when either is set.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Serves one connection inline on the current worker. A request line
/// longer than [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES) is
/// answered with an error and the connection closed, unread; a line that
/// is not UTF-8 is answered with a `parse_error`.
fn handle_connection(service: &Service, stream: TcpStream, stop: &StopHandle) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    if read_half.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        match read_line_bounded(&mut reader, &mut line) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                let _ = writeln!(writer, "{}", service.reject_long_line());
                break;
            }
            Ok(LineRead::Line) => {
                let (reply, disposition) = match std::str::from_utf8(&line) {
                    Ok(text) => service.handle_line_sync(text),
                    Err(_) => (Some(service.reject_non_utf8_line()), Disposition::Continue),
                };
                if let Some(reply) = reply {
                    if writeln!(writer, "{reply}").is_err() {
                        break;
                    }
                    let _ = writer.flush();
                }
                if disposition == Disposition::Shutdown {
                    stop.stop();
                    break;
                }
                line.clear();
            }
            // Timed out waiting for the next request: hang up if the
            // service is going down, otherwise keep listening. A
            // partially read line stays buffered in `line` and the
            // next read appends to it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.is_stopped() || service.is_draining() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}
