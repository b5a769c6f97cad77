//! The fleet under test: 12 `avcc-worker` processes behind a
//! `SocketExecutor`, plus the process-level odds and ends a run needs (where
//! the worker binary is, where sockets and traces may be written, peak RSS).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use avcc_sim::cluster::ClusterProfile;
use avcc_sim::socket::{SocketConfig, SocketExecutor, Transport, WorkerBackend};

/// Fleet width of every workload (the paper's testbed).
pub const WORKERS: usize = 12;

/// Real seconds a worker sleeps per unit of slowdown above 1.0: a ×8
/// straggler stalls 14 ms per round.
pub const SLEEP_PER_SLOWDOWN_UNIT: f64 = 0.002;

/// The directory holding the running executable (where cargo also put
/// `avcc-worker`).
pub fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "this executable has no parent directory".to_string())
}

/// The `avcc-worker` binary beside the running executable.
pub fn worker_binary() -> Result<PathBuf, String> {
    let path = exe_dir()?.join("avcc-worker");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build both binaries first (cargo build --release --manifest-path avcc-e2e/Cargo.toml)",
            path.display()
        ))
    }
}

/// Points `TMPDIR` — where `SocketExecutor` binds its Unix socket — at a
/// directory beside the build output, so a run touches nothing outside its
/// checkout. The path is made relative to the working directory when it can
/// be: `sun_path` holds only ~100 bytes and checkouts can be deep.
///
/// Must be called before any thread is started.
pub fn confine_temp_dir() -> Result<PathBuf, String> {
    let dir = exe_dir()?.join("e2e-tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let short = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(&cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| dir.clone());
    std::env::set_var("TMPDIR", &short);
    Ok(dir)
}

/// Where traced runs write `trace-<workload>.jsonl`.
pub fn trace_dir() -> Result<PathBuf, String> {
    let dir = exe_dir()?.join("e2e-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Spawns a fleet over `profile`: bind, launch one worker per slot, complete
/// every handshake. Returns the executor and how long that took.
pub fn spawn(
    profile: ClusterProfile,
    transport: Transport,
    backend: &WorkerBackend,
) -> Result<(SocketExecutor, Duration), String> {
    let config = SocketConfig {
        transport,
        backend: backend.clone(),
        sleep_per_slowdown_unit: SLEEP_PER_SLOWDOWN_UNIT,
        ..SocketConfig::default()
    };
    let started = Instant::now();
    let executor = SocketExecutor::with_config(profile, config)
        .map_err(|e| format!("cannot start the worker fleet: {e}"))?;
    Ok((executor, started.elapsed()))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
