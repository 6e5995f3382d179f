//! The `scperf-serve` binary: JSON-lines simulation service on
//! stdin/stdout and, optionally, a TCP listener.
//!
//! ```text
//! scperf-serve [--workers N] [--queue N] [--retry-after-ms N]
//!              [--flight-recorder N] [--tcp ADDR] [--no-stdio]
//! ```
//!
//! With `--tcp` both frontends run concurrently over one shared worker
//! pool; EOF or a `shutdown` op on either side stops the whole service
//! after a graceful drain.

use std::process::ExitCode;
use std::sync::Arc;

use scperf_serve::{Service, ServiceConfig, TcpServer};

struct Args {
    config: ServiceConfig,
    tcp: Option<String>,
    stdio: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: scperf-serve [--workers N] [--queue N] [--retry-after-ms N] \
         [--flight-recorder N] [--tcp ADDR] [--no-stdio]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: ServiceConfig::default(),
        tcp: None,
        stdio: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--workers" => {
                args.config.workers = value("--workers").parse().unwrap_or_else(|_| usage())
            }
            "--queue" => {
                args.config.queue_capacity = value("--queue").parse().unwrap_or_else(|_| usage())
            }
            "--retry-after-ms" => {
                args.config.retry_after_ms = value("--retry-after-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--flight-recorder" => {
                args.config.flight_recorder = value("--flight-recorder")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--tcp" => args.tcp = Some(value("--tcp")),
            "--no-stdio" => args.stdio = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.config.workers == 0 {
        eprintln!("--workers must be at least 1");
        usage()
    }
    if !args.stdio && args.tcp.is_none() {
        eprintln!("nothing to serve: --no-stdio without --tcp");
        usage()
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let service = Arc::new(Service::new(args.config.clone()));
    eprintln!(
        "scperf-serve: {} workers, queue capacity {}, {} pool slots",
        args.config.workers,
        args.config.queue_capacity,
        args.config.workers + 1
    );

    let mut tcp_thread = None;
    let mut tcp_stop = None;
    if let Some(addr) = &args.tcp {
        let server = match TcpServer::bind(addr.as_str(), Arc::clone(&service)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("scperf-serve: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("scperf-serve: listening on {}", server.local_addr());
        tcp_stop = Some(server.stop_handle());
        tcp_thread = Some(std::thread::spawn(move || server.run()));
    }

    if args.stdio {
        scperf_serve::stdio::run_stdio(&service);
        // stdio ended (EOF or shutdown op): take the TCP side down too.
        if let Some(stop) = &tcp_stop {
            stop.stop();
        }
    }
    if let Some(t) = tcp_thread {
        let _ = t.join();
    }
    service.drain();
    eprintln!("scperf-serve: drained, bye");
    ExitCode::SUCCESS
}
