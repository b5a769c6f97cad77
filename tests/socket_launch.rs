//! The socket runtime's launch wave, driven through real child processes:
//! a fleet is launched at once and each connection takes the slot its
//! `HELLO` names; a wave that fails — a worker that never connects, a
//! `HELLO` naming an index outside the wave or one already taken, a peer of
//! an older protocol version — is a typed `Spawn` error, and no child it
//! launched outlives it.
//!
//! The "worker binary" here is a shell script that records its pid and then
//! misbehaves (or execs the real `avcc-worker`), so every test can check
//! that each process it launched is gone.

#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use avcc::sim::cluster::ClusterProfile;
use avcc::sim::executor::{EvictionReason, Executor, ExecutorError};
use avcc::sim::socket::{SocketConfig, SocketExecutor, Transport, WorkerBackend};
use avcc::sim::wire::{Block, Hello};

/// One test at a time: a script written while another thread forks could be
/// held open by that child and fail to exec (`ETXTBSY`).
static SERIAL: Mutex<()> = Mutex::new(());

const P25: u64 = (1 << 25) - 39;

/// A scratch directory holding one test's launch script and pid log.
struct Sandbox {
    dir: PathBuf,
}

impl Sandbox {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("avcc-launch-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the sandbox");
        Sandbox { dir }
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Writes an executable script, called as `SCRIPT --connect TARGET
    /// --worker INDEX`, that first logs `INDEX PID` and then runs `body`.
    fn script(&self, interpreter: &str, body: &str) -> PathBuf {
        let path = self.path("worker.sh");
        let pids = self.path("pids");
        let text = format!(
            "#!{interpreter}\necho \"$4 $$\" >> '{}'\n{body}\n",
            pids.display()
        );
        std::fs::write(&path, text).expect("write the launch script");
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755))
            .expect("make the launch script executable");
        path
    }

    /// Every `(worker, pid)` the script has logged, in launch order.
    fn launched(&self) -> Vec<(usize, u32)> {
        let log = std::fs::read_to_string(self.path("pids")).unwrap_or_default();
        log.lines()
            .map(|line| {
                let (worker, pid) = line.split_once(' ').expect("INDEX PID");
                (worker.parse().unwrap(), pid.parse().unwrap())
            })
            .collect()
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Is `pid` still a process (a zombie counts: nobody reaped it)?
fn alive(pid: u32) -> bool {
    Command::new("sh")
        .arg("-c")
        .arg(format!("kill -0 {pid} 2>/dev/null"))
        .status()
        .expect("run sh")
        .success()
}

fn worker_binary() -> String {
    env!("CARGO_BIN_EXE_avcc-worker").to_string()
}

/// Launches `workers` copies of `script`; a wave not handshaken
/// `connect_timeout` after its launch fails.
fn launch(
    script: &Path,
    workers: usize,
    transport: Transport,
    connect_timeout: Duration,
) -> Result<SocketExecutor, ExecutorError> {
    SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        SocketConfig {
            transport,
            backend: WorkerBackend::Process {
                binary: script.to_path_buf(),
            },
            connect_timeout,
            round_timeout: Duration::from_secs(20),
            ..SocketConfig::default()
        },
    )
}

/// Launches a fleet that must fail, and checks the failure is a typed
/// `Spawn` error naming `why` with every process the wave launched gone.
/// A refused `HELLO` fails the wave as soon as it is read, so the timeout
/// only bounds a worker that never connects.
fn assert_wave_refused(
    sandbox: &Sandbox,
    script: &Path,
    transport: Transport,
    connect_timeout: Duration,
    why: &str,
) {
    match launch(script, 3, transport, connect_timeout) {
        Err(ExecutorError::Spawn { context }) => assert!(context.contains(why), "{context}"),
        other => panic!("the wave should fail with a Spawn error: {other:?}"),
    }
    let launched = sandbox.launched();
    assert!(
        !launched.is_empty(),
        "no worker got as far as logging its pid"
    );
    for (worker, pid) in launched {
        assert!(
            !alive(pid),
            "worker {worker} (pid {pid}) outlived its failed wave"
        );
    }
}

#[test]
fn a_worker_that_never_connects_fails_the_wave_and_is_killed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sandbox = Sandbox::new("silent");
    let script = sandbox.script("/bin/sh", "exec sleep 30");
    let timeout = Duration::from_secs(1);
    assert_wave_refused(
        &sandbox,
        &script,
        Transport::Uds,
        timeout,
        "did not connect",
    );
}

#[test]
fn a_hello_outside_the_wave_fails_it_and_every_child_is_reaped() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sandbox = Sandbox::new("outside");
    let body = format!("exec '{}' --connect \"$2\" --worker 99", worker_binary());
    let script = sandbox.script("/bin/sh", &body);
    let timeout = Duration::from_secs(20);
    assert_wave_refused(
        &sandbox,
        &script,
        Transport::Uds,
        timeout,
        "connected as 99",
    );
}

#[test]
fn a_duplicate_index_fails_the_wave_and_every_child_is_reaped() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sandbox = Sandbox::new("duplicate");
    // Every worker claims slot 0: the first takes it, the next is refused.
    let body = format!("exec '{}' --connect \"$2\" --worker 0", worker_binary());
    let script = sandbox.script("/bin/sh", &body);
    assert_wave_refused(
        &sandbox,
        &script,
        Transport::Tcp,
        Duration::from_secs(20),
        "worker 0 connected twice",
    );
}

#[test]
fn an_older_protocol_version_fails_the_wave_and_every_child_is_reaped() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sandbox = Sandbox::new("version");
    // The HELLO a version-2 worker sends, written over bash's /dev/tcp; the
    // script then holds the connection open.
    let hello = sandbox.path("hello.bin");
    let frame = Hello {
        version: 2,
        worker: 0,
    }
    .frame()
    .encode_with_version(2);
    std::fs::write(&hello, frame).expect("write the HELLO");
    let body = format!(
        "addr=${{2#tcp:}}\nexec 3<>\"/dev/tcp/${{addr%:*}}/${{addr##*:}}\"\ncat '{}' >&3 2>/dev/null\nexec sleep 30",
        hello.display()
    );
    let script = sandbox.script("/bin/bash", &body);
    assert_wave_refused(
        &sandbox,
        &script,
        Transport::Tcp,
        Duration::from_secs(20),
        "unsupported protocol version 2",
    );
}

#[test]
fn a_failed_respawn_kills_its_child_and_a_later_one_recovers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sandbox = Sandbox::new("respawn");
    // A real worker while `healthy` exists, a silent one otherwise.
    let healthy = sandbox.path("healthy");
    let body = format!(
        "if [ -e '{}' ]; then exec '{}' \"$@\"; fi\nexec sleep 30",
        healthy.display(),
        worker_binary()
    );
    let script = sandbox.script("/bin/sh", &body);
    std::fs::write(&healthy, "").unwrap();
    // Long enough for the real workers, short enough to wait out the
    // silent respawn below.
    let timeout = Duration::from_secs(2);
    let mut fleet = launch(&script, 3, Transport::Uds, timeout).expect("launch the fleet");
    let blocks: Vec<Block> = (0..3)
        .map(|w| Block {
            modulus: P25,
            rows: 2,
            cols: 2,
            elements: vec![w + 1, 2, 3, 4],
        })
        .collect();
    let inputs = vec![vec![vec![1, 1]]; 3];
    fleet.install_blocks(0, &blocks).unwrap();
    assert_eq!(fleet.execute_round(0, 0, &inputs).unwrap().len(), 3);

    // Worker 1 dies; its respawn (a wave of one) launches a child that never
    // connects, so the round goes on without it — and that child is gone.
    std::fs::remove_file(&healthy).unwrap();
    fleet.kill_worker(1);
    let outcomes = fleet.execute_round(0, 1, &inputs).unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(fleet
        .round_evictions()
        .iter()
        .any(|e| e.worker == 1 && e.reason == EvictionReason::Disconnected));
    let (worker, silent) = *sandbox.launched().last().unwrap();
    assert_eq!(worker, 1);
    assert!(
        !alive(silent),
        "the failed respawn's child (pid {silent}) outlived it"
    );

    // Healthy again, and past the backoff: the next respawn replays the block.
    std::fs::write(&healthy, "").unwrap();
    thread::sleep(Duration::from_millis(300));
    let mut outcomes = fleet.execute_round(0, 2, &inputs).unwrap();
    outcomes.sort_by_key(|o| o.worker);
    let payloads: Vec<Vec<Vec<u64>>> = outcomes.into_iter().map(|o| o.payload).collect();
    assert_eq!(
        payloads,
        vec![vec![vec![3, 7]], vec![vec![4, 7]], vec![vec![5, 7]]]
    );
    assert_eq!(fleet.metrics().respawns, 1);

    drop(fleet);
    for (worker, pid) in sandbox.launched() {
        assert!(
            !alive(pid),
            "worker {worker} (pid {pid}) outlived its fleet"
        );
    }
}
