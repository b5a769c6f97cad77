//! The AVCC worker process: connects back to a master, completes the wire
//! handshake and serves `LOAD_BLOCK`/`TASK` frames until told to shut down.
//!
//! Usage (spawned by `avcc_sim::SocketExecutor`, but runnable by hand):
//!
//! ```text
//! avcc-worker --connect tcp:127.0.0.1:4100 --worker 3
//! avcc-worker --connect uds:/tmp/avcc-master-1234-0.sock --worker 3
//! ```
//!
//! The protocol (including this binary's exact frame sequence) is specified
//! in `docs/WIRE_FORMAT.md`.

use std::net::TcpStream;
use std::process::ExitCode;

use avcc_sim::wire::serve_connection;

fn usage() -> ExitCode {
    eprintln!("usage: avcc-worker --connect tcp:HOST:PORT|uds:PATH --worker INDEX");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut connect: Option<String> = None;
    let mut worker: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = args.next(),
            "--worker" => worker = args.next().and_then(|v| v.parse().ok()),
            _ => return usage(),
        }
    }
    let (Some(connect), Some(worker)) = (connect, worker) else {
        return usage();
    };

    let result = if let Some(addr) = connect.strip_prefix("tcp:") {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                serve_connection(stream, worker)
            }
            Err(e) => {
                eprintln!("avcc-worker {worker}: connect {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(path) = connect.strip_prefix("uds:") {
        #[cfg(unix)]
        {
            match std::os::unix::net::UnixStream::connect(path) {
                Ok(stream) => serve_connection(stream, worker),
                Err(e) => {
                    eprintln!("avcc-worker {worker}: connect {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        #[cfg(not(unix))]
        {
            eprintln!("avcc-worker {worker}: unix sockets unsupported here ({path})");
            return ExitCode::FAILURE;
        }
    } else {
        return usage();
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A master tearing the connection down (eviction, kill) is the
            // expected end of life for a worker mid-fault-test; report it but
            // exit nonzero so an unexpected death is visible in CI logs.
            eprintln!("avcc-worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}
