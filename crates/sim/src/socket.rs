//! The socket runtime: a master/worker executor over real TCP or Unix-domain
//! sockets, speaking the `avcc-wire` protocol.
//!
//! [`SocketExecutor`] implements the same [`Executor`] trait as the
//! in-process engines, so every engine, the trainer and the scheduler run
//! over real sockets unchanged — but here `network_seconds` is *measured*
//! (arrival minus compute), not modeled, and worker failure is a real
//! connection event, not a simulated flag.
//!
//! # Topology
//!
//! ```text
//!   master (this struct)
//!   ├── listener (TCP 127.0.0.1:* or UDS in temp dir)
//!   ├── per worker: writer half ──────────────► worker i
//!   │               reader thread ◄──────────── (process running the
//!   │                    │ mpsc Event channel    `avcc-worker` binary, or an
//!   └── receive loop ◄───┘                       in-process thread running
//!        (submit / poll / install)               the same protocol loop)
//! ```
//!
//! One thread per connection blocks on [`avcc_wire::read_frame`] and pushes
//! events into an mpsc channel; one receive loop on the master drains it.
//! There are deliberately *no read timeouts on the sockets themselves* — a
//! silent worker is handled by the master-side deadline (eviction as a
//! timed-out straggler), and a dead worker by the EOF its closing socket
//! delivers to the reader thread.
//!
//! # Workers launch in waves
//!
//! [`SocketExecutor::with_config`] launches all `N` workers first — child
//! processes or in-process threads — and only then accepts `N` connections,
//! in whatever order they arrive, giving each the slot its `HELLO` names; so
//! the fleet starts in about the time one worker does. A respawn is a wave of
//! one through the same code. A `HELLO` of the wrong frame kind or protocol
//! version, or naming an index outside the wave or one already taken, fails
//! the wave with [`ExecutorError::Spawn`], as does a worker not handshaken
//! [`SocketConfig::connect_timeout`] after the launch; every child of a
//! failed wave whose handshake did not complete is killed and reaped, so no
//! orphan can connect later as a respawn of its slot.
//!
//! # Rounds are split-phase
//!
//! [`Executor::submit_round`] dispatches a round and returns a ticket,
//! [`Executor::poll_round`] reports the ticket's new arrivals and who is still
//! awaited, [`Executor::retire_round`] ends it — possibly while slow workers
//! are still computing, which is how a master that can already decode stops
//! waiting for its stragglers. [`Executor::execute_round`] is submit, poll
//! until nobody is awaited, retire.
//!
//! Because rounds end with workers still busy, each worker has **at most one
//! task in flight**: frames for a busy worker wait master-side and go out
//! when its result — wanted or stale — arrives, a retired round's queued
//! tasks are never sent, and a result is matched to the task the master last
//! sent that worker rather than by its `(job, round)` echo. The `tickets`
//! module next to this one holds that state machine and the reasons.
//!
//! # Frames are encoded once
//!
//! Every frame the master sends is built straight into its final wire bytes
//! ([`EncodedFrame`]: header, payload written in place, CRC-32C trailer — one
//! buffer) and those shared bytes are all that moves from there: the ticket
//! board queues them, `send_frame` writes them, and for `LOAD_BLOCK` the
//! **respawn cache keeps them** — `install_blocks` neither clones its blocks
//! nor serializes one twice, and a respawned worker is replayed, verbatim and
//! with its original checksum, the frame its predecessor was sent. A job is
//! out of the cache while its new blocks ship, so a worker respawned in the
//! middle of `install_blocks` gets that job's block once. The cache keeps
//! each block's modulus beside its frame: a `TASK` whose inputs are small
//! signed values of that field — the paper's quantized weights and errors —
//! goes 2 bytes per element ([`Task::encoded_frame_in`]).
//!
//! The cache is the one full copy of the data the executor holds, and it
//! stays: [`Executor::install_blocks`] receives wire [`Block`]s, not the
//! shares they were lowered from, so the executor has nothing to re-lower a
//! respawn's block from, and the frame is the narrowest form of those bytes
//! (4 bytes per 25-bit element, where a `Block` or a field matrix holds 8).
//! What it holds, frames being `48 + rows·cols·width` bytes: 24 frames of
//! 208 848 B on `train_*` (4.8 MiB of a master's ≈ 33 MiB peak) and 12 of
//! 983 088 B on `matmul_batch` (11.3 MiB of ≈ 47 MiB); a build caching no
//! frames reads that much lower. Dropping a job's frames is the `UNLOAD` of
//! ROADMAP item 10(a).
//!
//! # Eviction and recovery
//!
//! Any wire-level defect on a worker's connection — checksum mismatch,
//! version mismatch, truncated frame, disconnect, an answer nobody asked for,
//! a task unanswered [`SocketConfig::round_timeout`] after it was sent —
//! evicts the worker: its outcome is simply absent, which is exactly the
//! straggler/Byzantine shape the decode layer already tolerates. The
//! connection is torn down; at the next round the worker is respawned,
//! re-handshaken and replayed every cached `LOAD_BLOCK` frame
//! (`reconnect-or-evict`).
//! Respawn attempts that *fail* back off with capped exponential delay and
//! deterministic per-(worker, attempt) jitter — see [`backoff_delay`] — so a
//! dead host is not hammered every round while the rest of the fleet makes
//! progress; attempts are counted per worker in [`SocketMetrics`].
//!
//! # Churn
//!
//! A [`ChurnSchedule`] installed via
//! [`SocketExecutor::set_churn`] is consumed on the round clock: a scheduled
//! crash/flap tears the worker's real connection down and suppresses respawn
//! while the schedule holds it down; re-admission goes through the ordinary
//! respawn path (handshake + cached `LoadBlock` replay); a corruption window
//! arms the wire-level `CorruptPayload` fault each round, so the master sees
//! a genuine checksum mismatch and evicts the worker as a corrupt frame.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use avcc_wire::{
    read_frame, write_frame, Block, EncodedFrame, Fault, FaultKind, Frame, FrameKind, Hello,
    HelloAck, Task, TaskResult, WireError, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION,
};

use crate::churn::{ChurnEvent, ChurnSchedule, ChurnState};
use crate::cluster::ClusterProfile;
use crate::executor::{
    slowdown_sleep_seconds, Eviction, EvictionReason, Executor, ExecutorError, RawOutcome,
    RoundPoll, RoundTicket,
};
use crate::tickets::{TicketBoard, Verdict};

/// Which socket family carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP over loopback (`127.0.0.1`, ephemeral port).
    Tcp,
    /// Unix-domain stream socket in the system temp directory.
    Uds,
}

/// What actually runs the worker protocol loop.
#[derive(Debug, Clone)]
pub enum WorkerBackend {
    /// A thread in this process running [`avcc_wire::serve_connection`] over
    /// a real socket — the full wire protocol without process-spawn cost.
    /// Used by tests and benches.
    InProcess,
    /// A spawned child process running the `avcc-worker` binary. The real
    /// deal: separate address space, killable, measurable.
    Process {
        /// Path to the worker binary.
        binary: PathBuf,
    },
}

/// Tunables for the socket runtime.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Socket family.
    pub transport: Transport,
    /// Worker launch mode.
    pub backend: WorkerBackend,
    /// Deadline for spawn + connect + handshake of each worker, from the
    /// launch of its wave.
    pub connect_timeout: Duration,
    /// Per-task deadline, running from the instant the task was sent: a
    /// worker silent past it is evicted as a timed-out straggler.
    pub round_timeout: Duration,
    /// Seconds of injected sleep per unit of effective slowdown above 1.0
    /// (same knob as `ThreadedExecutor`, realized worker-side via the TASK
    /// frame's `sleep_micros` field).
    pub sleep_per_slowdown_unit: f64,
    /// Respawn evicted/dead workers at the next round (reconnect-or-evict).
    pub respawn: bool,
}

/// Write timeout on master→worker sends: a wedged worker cannot block the
/// master indefinitely.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Base delay of the capped exponential backoff between *failed* respawn
/// attempts for one worker (the first attempt after a death is immediate).
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Upper bound on the respawn backoff delay.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_secs(2);

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            transport: Transport::Tcp,
            backend: WorkerBackend::InProcess,
            connect_timeout: Duration::from_secs(10),
            round_timeout: Duration::from_secs(30),
            sleep_per_slowdown_unit: 0.01,
            respawn: true,
        }
    }
}

/// The delay before retry number `attempt` (0-based) of worker `worker`:
/// capped exponential growth from `base` with deterministic jitter.
///
/// The undelayed schedule is `base × 2^attempt`, clamped to `cap`; the
/// returned delay is then jittered into `[half, full)` of that value using a
/// SplitMix64 hash of `(worker, attempt)` — fully deterministic (no RNG
/// state, no wall clock), yet de-synchronized across workers so a rack-wide
/// outage does not produce a synchronized reconnect stampede.
pub fn backoff_delay(attempt: u64, worker: usize, base: Duration, cap: Duration) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16) as u32);
    let full = exp.min(cap).max(Duration::from_micros(1));
    // SplitMix64 of the (worker, attempt) pair.
    let mut z = (worker as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attempt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let fraction = (z % 1024) as f64 / 1024.0;
    full.div_f64(2.0) + full.div_f64(2.0).mul_f64(fraction)
}

/// Wire-level counters the master accumulates across its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocketMetrics {
    /// Workers evicted mid-round (any reason).
    pub evictions: u64,
    /// Workers respawned after eviction or death.
    pub respawns: u64,
    /// Respawn attempts per worker (successful or not) — the counter the
    /// backoff policy spaces out.
    pub respawn_attempts: Vec<u64>,
    /// Frames the master sent.
    pub frames_sent: u64,
    /// Frames the master received (including stale ones).
    pub frames_received: u64,
    /// Bytes the master sent.
    pub bytes_sent: u64,
    /// Bytes the master received.
    pub bytes_received: u64,
    /// Frames discarded as stale (late results for retired rounds, frames
    /// from replaced connections).
    pub stale_frames: u64,
    /// `TASK`s dropped unsent because their round was retired while they
    /// waited for a busy worker.
    pub tasks_dropped: u64,
}

/// A unified client stream over both transports.
#[derive(Debug)]
enum StreamKind {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl StreamKind {
    fn try_clone(&self) -> io::Result<StreamKind> {
        match self {
            Self::Tcp(s) => s.try_clone().map(Self::Tcp),
            #[cfg(unix)]
            Self::Unix(s) => s.try_clone().map(Self::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Self::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Self::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Self::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    fn shutdown(&self) {
        match self {
            Self::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Self::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for StreamKind {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for StreamKind {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Self::Unix(s) => s.flush(),
        }
    }
}

/// Where a worker should connect to, printable as the `--connect` argument.
#[derive(Debug, Clone)]
enum ConnectTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

impl ConnectTarget {
    fn to_arg(&self) -> String {
        match self {
            Self::Tcp(addr) => format!("tcp:{addr}"),
            #[cfg(unix)]
            Self::Uds(path) => format!("uds:{}", path.display()),
        }
    }

    fn connect(&self) -> io::Result<StreamKind> {
        match self {
            Self::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(StreamKind::Tcp(stream))
            }
            #[cfg(unix)]
            Self::Uds(path) => UnixStream::connect(path).map(StreamKind::Unix),
        }
    }
}

#[derive(Debug)]
enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

impl ListenerKind {
    fn bind(transport: Transport) -> Result<Self, ExecutorError> {
        match transport {
            Transport::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| spawn_err(&e))?;
                listener.set_nonblocking(true).map_err(|e| spawn_err(&e))?;
                Ok(Self::Tcp(listener))
            }
            #[cfg(unix)]
            Transport::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "avcc-master-{}-{}.sock",
                    std::process::id(),
                    UDS_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path).map_err(|e| spawn_err(&e))?;
                listener.set_nonblocking(true).map_err(|e| spawn_err(&e))?;
                Ok(Self::Unix(listener, path))
            }
            #[cfg(not(unix))]
            Transport::Uds => Err(ExecutorError::Spawn {
                context: "unix-domain sockets are unavailable on this platform".to_string(),
            }),
        }
    }

    fn target(&self) -> Result<ConnectTarget, ExecutorError> {
        match self {
            Self::Tcp(listener) => {
                let addr = listener.local_addr().map_err(|e| spawn_err(&e))?;
                Ok(ConnectTarget::Tcp(addr))
            }
            #[cfg(unix)]
            Self::Unix(_, path) => Ok(ConnectTarget::Uds(path.clone())),
        }
    }

    /// Takes the next connection waiting in the backlog, if any. The
    /// listener is non-blocking from [`bind`](Self::bind) on; the stream it
    /// returns blocks.
    fn accept_waiting(&self) -> io::Result<StreamKind> {
        let stream = match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                StreamKind::Tcp(s)
            }),
            #[cfg(unix)]
            Self::Unix(l, _) => l.accept().map(|(s, _)| StreamKind::Unix(s)),
        }?;
        stream.set_nonblocking(false)?;
        Ok(stream)
    }

    /// Accepts one connection before `deadline` (a poll loop, so a worker
    /// that never connects cannot wedge the master).
    fn accept_deadline(&self, deadline: Instant) -> Result<StreamKind, ExecutorError> {
        loop {
            match self.accept_waiting() {
                Ok(stream) => return Ok(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(ExecutorError::Spawn {
                            context: "worker did not connect before the deadline".to_string(),
                        });
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(spawn_err(&e)),
            }
        }
    }

    /// Closes every connection still waiting in the backlog: what a failed
    /// earlier wave left behind (a killed child's, or an in-process worker's
    /// that connected after its wave gave up), never a worker of the next.
    fn drain(&self) {
        while self.accept_waiting().is_ok() {}
    }
}

impl Drop for ListenerKind {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Self::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn spawn_err(e: &dyn std::fmt::Display) -> ExecutorError {
    ExecutorError::Spawn {
        context: e.to_string(),
    }
}

/// Reads the `HELLO` that opens a worker's connection and returns the index
/// it claims, refusing a peer of another protocol version — its frame's
/// version word is refused by `read_frame` before anything else is read, and
/// its `HELLO` must name this version too.
fn accept_hello<R: Read>(stream: &mut R) -> Result<u32, ExecutorError> {
    let (frame, _) = read_frame(stream, DEFAULT_MAX_PAYLOAD).map_err(|e| spawn_err(&e))?;
    if frame.kind != FrameKind::Hello {
        return Err(ExecutorError::Spawn {
            context: format!("expected HELLO, got {:?}", frame.kind),
        });
    }
    let hello = Hello::decode(&frame.payload).map_err(|e| spawn_err(&e))?;
    if hello.version != PROTOCOL_VERSION {
        return Err(ExecutorError::Spawn {
            context: format!(
                "worker speaks protocol version {}, master speaks {}",
                hello.version, PROTOCOL_VERSION
            ),
        });
    }
    Ok(hello.worker)
}

/// Gives a `HELLO` naming `index` its slot in the wave launched for `wave`,
/// of which `open` are not yet taken: an index outside the wave, or one
/// already taken, is refused.
fn claim_slot(wave: &[usize], open: &mut Vec<usize>, index: u32) -> Result<usize, ExecutorError> {
    let index = index as usize;
    if let Some(at) = open.iter().position(|&worker| worker == index) {
        open.swap_remove(at);
        return Ok(index);
    }
    let context = if wave.contains(&index) {
        format!("worker {index} connected twice")
    } else {
        format!("a worker connected as {index}, outside the wave {wave:?}")
    };
    Err(ExecutorError::Spawn { context })
}

/// The child processes of a launch wave whose handshakes have not completed.
/// Any still here when the wave ends — it failed part-way — are killed and
/// reaped: `std` does not kill on drop, and an orphan could connect later
/// and be accepted as a respawn of its slot.
#[derive(Default)]
struct Launched(Vec<(usize, Child)>);

impl Launched {
    /// Hands over worker `worker`'s child, its handshake done.
    fn take(&mut self, worker: usize) -> Option<Child> {
        let at = self.0.iter().position(|(w, _)| *w == worker)?;
        Some(self.0.swap_remove(at).1)
    }
}

impl Drop for Launched {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One live worker connection.
#[derive(Debug)]
struct WorkerLink {
    writer: StreamKind,
    child: Option<Child>,
    /// Reader (and, for `InProcess`, worker) threads are detached; handles
    /// are kept only so dropping them is explicit.
    _reader: JoinHandle<()>,
}

/// What a reader thread reports to the master.
enum Event {
    Frame {
        worker: usize,
        generation: u64,
        frame: Frame,
        bytes: usize,
        at: Instant,
    },
    Failed {
        worker: usize,
        generation: u64,
        error: WireError,
    },
}

/// One worker's block of a job, as the master keeps it.
#[derive(Debug, Clone)]
struct CachedBlock {
    frame: EncodedFrame,
    modulus: u64,
}

/// The TCP/UDS master runtime. See the module docs for topology and
/// semantics: split-phase rounds with one task in flight per worker, frames
/// encoded once and cached as wire bytes, reconnect-or-evict.
#[derive(Debug)]
pub struct SocketExecutor {
    profile: ClusterProfile,
    config: SocketConfig,
    listener: ListenerKind,
    links: Vec<Option<WorkerLink>>,
    events: mpsc::Receiver<Event>,
    events_tx: mpsc::Sender<Event>,
    /// The respawn cache, job → each worker's block: its `LOAD_BLOCK` frame
    /// as it was first sent, what a respawned worker is replayed, verbatim,
    /// before it can compute again; and its modulus, which lets the job's
    /// `TASK`s go 2 bytes wide.
    blocks: HashMap<u64, Vec<CachedBlock>>,
    /// Live rounds, what each worker is busy with and what waits for it.
    board: TicketBoard,
    /// Evictions since the most recent submit.
    last_evictions: Vec<Eviction>,
    metrics: SocketMetrics,
    /// Monotonic connection generation: events from a replaced connection's
    /// reader thread are discarded by generation mismatch.
    next_generation: u64,
    /// Consecutive *failed* respawn attempts per worker since its last
    /// successful spawn (drives the exponential backoff).
    failed_respawns: Vec<u64>,
    /// Earliest instant the next respawn attempt per worker is allowed.
    respawn_after: Vec<Instant>,
    /// Scripted fleet churn, consumed on the round clock (`None` = quiet).
    churn: Option<ChurnState>,
}

impl SocketExecutor {
    /// TCP runtime with in-process protocol workers and default tuning.
    pub fn tcp(profile: ClusterProfile) -> Result<Self, ExecutorError> {
        Self::with_config(profile, SocketConfig::default())
    }

    /// UDS runtime with in-process protocol workers and default tuning.
    pub fn uds(profile: ClusterProfile) -> Result<Self, ExecutorError> {
        Self::with_config(
            profile,
            SocketConfig {
                transport: Transport::Uds,
                ..SocketConfig::default()
            },
        )
    }

    /// Full-control constructor: binds the listener, launches one worker per
    /// profile slot in one wave and completes every handshake before
    /// returning. On failure every worker it launched is stopped.
    pub fn with_config(
        profile: ClusterProfile,
        config: SocketConfig,
    ) -> Result<Self, ExecutorError> {
        let listener = ListenerKind::bind(config.transport)?;
        let (events_tx, events) = mpsc::channel();
        let width = profile.len();
        let mut this = Self {
            profile,
            config,
            listener,
            links: (0..width).map(|_| None).collect(),
            events,
            events_tx,
            blocks: HashMap::new(),
            board: TicketBoard::new(width),
            last_evictions: Vec::new(),
            metrics: SocketMetrics {
                respawn_attempts: vec![0; width],
                ..SocketMetrics::default()
            },
            next_generation: 0,
            failed_respawns: vec![0; width],
            respawn_after: vec![Instant::now(); width],
            churn: None,
        };
        let fleet: Vec<usize> = (0..width).collect();
        this.launch_wave(&fleet)?;
        Ok(this)
    }

    /// Wire-level counters.
    pub fn metrics(&self) -> SocketMetrics {
        self.metrics.clone()
    }

    /// Installs a churn schedule, consumed against the round indices passed
    /// to [`Executor::submit_round`] / [`Executor::execute_round`]. Replaces
    /// any previous schedule and resets its state.
    pub fn set_churn(&mut self, schedule: ChurnSchedule) {
        self.churn = Some(ChurnState::new(schedule, self.links.len()));
    }

    /// The churn state, if a schedule is installed.
    pub fn churn(&self) -> Option<&ChurnState> {
        self.churn.as_ref()
    }

    /// Is `worker` currently held down by the churn schedule?
    fn churn_down(&self, worker: usize) -> bool {
        self.churn.as_ref().is_some_and(|c| c.is_down(worker))
    }

    /// Which transport this runtime is on.
    pub fn transport(&self) -> Transport {
        self.config.transport
    }

    /// Arms a one-shot injected fault on `worker` (test harness): the
    /// worker's next result send exhibits the defect, which the master then
    /// handles exactly as it would the real thing.
    pub fn inject_fault(&mut self, worker: usize, kind: FaultKind) -> Result<(), ExecutorError> {
        if self.links[worker].is_some() {
            self.post(worker, None, Fault { kind }.encoded_frame());
        }
        // `post` evicts on a failed write, so a missing link covers both "was
        // already down" and "went down under this frame".
        if self.links[worker].is_some() {
            return Ok(());
        }
        let error = WireError::Closed {
            context: "arming a fault on an evicted worker",
        };
        Err(ExecutorError::BadBlock { worker, error })
    }

    /// Kills a worker outright: for the process backend this is a real
    /// `SIGKILL`; for the in-process backend the connection is torn down
    /// (the protocol thread exits on the resulting read error). The worker
    /// is respawned at the next round if `respawn` is enabled.
    pub fn kill_worker(&mut self, worker: usize) {
        if let Some(link) = self.links[worker].as_mut() {
            if let Some(child) = link.child.as_mut() {
                let _ = child.kill();
            }
        }
        self.tear_down(worker);
    }

    /// Launches the workers `wave` names all at once — child processes or
    /// in-process threads — and only then accepts their connections, in
    /// whatever order they arrive, giving each the slot its `HELLO` names.
    /// The constructor launches the whole fleet as one wave; a respawn is a
    /// wave of one.
    ///
    /// Each worker's spawn, connect and handshake must finish within
    /// [`SocketConfig::connect_timeout`] of the launch. A failed launch or
    /// accept, or a `HELLO` of the wrong kind or version or naming an index
    /// outside the wave or already taken, fails the wave with
    /// [`ExecutorError::Spawn`]: the workers whose handshake completed keep
    /// their links, every other launched child is killed and reaped.
    ///
    /// The children are spawned one after another from this thread; each
    /// `Command::spawn` returns once its child has `exec`'d. Measured and
    /// left so: twelve `avcc-worker` spawns take 6.2–10.9 ms from one thread
    /// and 6.4–11.4 ms split over two (2 vCPUs, 6 rounds each, alternating),
    /// with no trend in the parent's memory from 0 to 128 MB — the wave's
    /// cost is the children's `exec`, which already runs on both cores.
    fn launch_wave(&mut self, wave: &[usize]) -> Result<(), ExecutorError> {
        self.listener.drain();
        let target = self.listener.target()?;
        let deadline = Instant::now() + self.config.connect_timeout;
        let mut launched = Launched::default();
        for &worker in wave {
            match &self.config.backend {
                WorkerBackend::InProcess => {
                    let target = target.clone();
                    thread::spawn(move || {
                        if let Ok(stream) = target.connect() {
                            let _ = avcc_wire::serve_connection(stream, worker as u32);
                        }
                    });
                }
                WorkerBackend::Process { binary } => {
                    let child = Command::new(binary)
                        .arg("--connect")
                        .arg(target.to_arg())
                        .arg("--worker")
                        .arg(worker.to_string())
                        .stdin(Stdio::null())
                        .spawn()
                        .map_err(|e| spawn_err(&e))?;
                    launched.0.push((worker, child));
                }
            }
        }

        let mut open = wave.to_vec();
        while !open.is_empty() {
            let mut stream = self.listener.accept_deadline(deadline)?;
            let patience = deadline.saturating_duration_since(Instant::now());
            stream
                .set_read_timeout(Some(patience.max(Duration::from_millis(1))))
                .map_err(|e| spawn_err(&e))?;
            let index = accept_hello(&mut stream)?;
            let worker = claim_slot(wave, &mut open, index)?;
            self.connect(worker, stream, launched.take(worker))?;
        }
        Ok(())
    }

    /// Completes worker `worker`'s handshake on `stream`, whose `HELLO` has
    /// been read, and makes it the worker's live link.
    fn connect(
        &mut self,
        worker: usize,
        mut stream: StreamKind,
        child: Option<Child>,
    ) -> Result<(), ExecutorError> {
        let generation = self.next_generation;
        self.next_generation += 1;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| spawn_err(&e))?;
        let ack = HelloAck {
            worker: worker as u32,
            workers: self.links.len() as u32,
        };
        let sent = write_frame(&mut stream, &ack.frame()).map_err(|e| spawn_err(&e))?;
        self.metrics.frames_sent += 1;
        self.metrics.bytes_sent += sent as u64;

        // The reader blocks indefinitely; round deadlines are enforced
        // master-side and worker death arrives as EOF.
        stream.set_read_timeout(None).map_err(|e| spawn_err(&e))?;
        // Buffered, so a small frame — a `TASK_RESULT` — is one `read`, not a
        // header read and a body read. 8 KiB, `BufReader`'s default: a
        // larger buffer per connection costs master RSS.
        let mut reader_stream = BufReader::new(stream.try_clone().map_err(|e| spawn_err(&e))?);
        let events_tx = self.events_tx.clone();
        let reader = thread::spawn(move || loop {
            match read_frame(&mut reader_stream, DEFAULT_MAX_PAYLOAD) {
                Ok((frame, bytes)) => {
                    if events_tx
                        .send(Event::Frame {
                            worker,
                            generation,
                            frame,
                            bytes,
                            at: Instant::now(),
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                Err(error) => {
                    let _ = events_tx.send(Event::Failed {
                        worker,
                        generation,
                        error,
                    });
                    break;
                }
            }
        });

        self.links[worker] = Some(WorkerLink {
            writer: stream,
            child,
            _reader: reader,
        });
        self.board.connect(worker, generation);
        Ok(())
    }

    /// Tears a worker's connection down (stream shutdown, child reaped);
    /// whatever it was computing or had queued is lost with it.
    fn tear_down(&mut self, worker: usize) {
        self.board.disconnect(worker);
        if let Some(mut link) = self.links[worker].take() {
            link.writer.shutdown();
            if let Some(mut child) = link.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// Respawns a dead worker and re-sends every cached block it needs
    /// (reconnect-or-evict's reconnect half). Returns whether the worker is
    /// live afterwards.
    ///
    /// Failed attempts back off exponentially (capped, jittered — see
    /// [`backoff_delay`]): while the backoff window is open the worker simply
    /// stays dead for the round, costing nothing; the first attempt after a
    /// death is immediate. A worker the churn schedule holds down is never
    /// respawned (and burns no attempts) until the schedule re-admits it.
    fn ensure_live(&mut self, worker: usize) -> bool {
        if self.links[worker].is_some() {
            return true;
        }
        if !self.config.respawn || self.churn_down(worker) {
            return false;
        }
        let now = Instant::now();
        if now < self.respawn_after[worker] {
            return false; // still backing off; no attempt burned
        }
        self.metrics.respawn_attempts[worker] += 1;
        if self.launch_wave(&[worker]).is_err() {
            self.links[worker] = None;
            let attempt = self.failed_respawns[worker];
            self.failed_respawns[worker] += 1;
            self.respawn_after[worker] =
                now + backoff_delay(attempt, worker, RESPAWN_BACKOFF_BASE, RESPAWN_BACKOFF_CAP);
            return false;
        }
        self.failed_respawns[worker] = 0;
        self.respawn_after[worker] = now;
        self.metrics.respawns += 1;
        // Replay the worker's block of every cached job: the bytes first
        // sent, checksum and all.
        let frames: Vec<EncodedFrame> = self
            .blocks
            .values()
            .filter_map(|blocks| blocks.get(worker).map(|block| block.frame.clone()))
            .collect();
        for frame in frames {
            if self.send_frame(worker, &frame).is_err() {
                self.tear_down(worker);
                return false;
            }
        }
        true
    }

    /// Queues `frame` for `worker` (as part of `ticket`'s round, if any) and
    /// sends whatever the worker is ready for: everything at once if it is
    /// idle, nothing until its result arrives if it is busy.
    fn post(&mut self, worker: usize, ticket: Option<u64>, frame: EncodedFrame) {
        self.board.enqueue(worker, ticket, frame);
        self.flush(worker);
    }

    /// Sends `worker` its queued frames, up to and including the next `TASK`.
    fn flush(&mut self, worker: usize) {
        while let Some(frame) = self.board.pop_ready(worker, Instant::now()) {
            if self.send_frame(worker, &frame).is_err() {
                self.evict(worker, frame.round(), EvictionReason::Disconnected);
            }
        }
    }

    fn send_frame(&mut self, worker: usize, frame: &EncodedFrame) -> Result<(), WireError> {
        let link = self.links[worker].as_mut().ok_or(WireError::Closed {
            context: "sending to an evicted worker",
        })?;
        let bytes = frame.write_to(&mut link.writer)?;
        self.metrics.frames_sent += 1;
        self.metrics.bytes_sent += bytes as u64;
        Ok(())
    }

    /// Records an eviction and tears the connection down.
    fn evict(&mut self, worker: usize, round: u64, reason: EvictionReason) {
        self.last_evictions.push(Eviction {
            worker,
            round,
            reason,
        });
        self.metrics.evictions += 1;
        self.tear_down(worker);
    }

    /// The one receive loop. Handles every event already queued without
    /// blocking; then, while `ticket` is live and has no news, blocks for the
    /// next event until `give_up` (`None`: as long as it takes — every task
    /// in flight has a deadline, so that is bounded). With no `ticket` it
    /// only settles what has arrived, so frames that belong to live rounds
    /// reach them whichever call happens to read them off the channel.
    fn pump(&mut self, ticket: Option<u64>, give_up: Option<Instant>) {
        let timeout = self.config.round_timeout;
        loop {
            let now = Instant::now();
            for (worker, round) in self.board.drop_overdue(now, timeout) {
                self.evict(worker, round, EvictionReason::TimedOut);
            }
            let waiting = ticket.is_some_and(|ticket| !self.board.has_news(ticket));
            let until = if waiting {
                // Someone is awaited, so a task is in flight and has a deadline.
                let Some(deadline) = self.board.next_deadline(timeout) else {
                    return;
                };
                give_up.map_or(deadline, |give_up| give_up.min(deadline))
            } else {
                now
            };
            match self
                .events
                .recv_timeout(until.saturating_duration_since(now))
            {
                Ok(event) => self.handle(event),
                Err(mpsc::RecvTimeoutError::Timeout) if waiting => {
                    if give_up.is_some_and(|give_up| Instant::now() >= give_up) {
                        return;
                    }
                    // A task's deadline passed: expire it at the top.
                }
                Err(_) => return,
            }
        }
    }

    /// Applies one reader-thread event to the board, the links and the
    /// metrics — the only place results are matched to rounds.
    fn handle(&mut self, event: Event) {
        match event {
            Event::Frame {
                worker,
                generation,
                frame,
                bytes,
                at,
            } => {
                self.metrics.frames_received += 1;
                self.metrics.bytes_received += bytes as u64;
                let verdict =
                    self.board
                        .on_frame(worker, generation, frame.kind, frame.job, frame.round);
                match verdict {
                    Verdict::Deliver { ticket, started } => {
                        match TaskResult::decode(&frame.payload) {
                            Ok(result) => {
                                let arrival_seconds = at.duration_since(started).as_secs_f64();
                                self.board
                                    .deliver(ticket, outcome_of(worker, result, arrival_seconds));
                            }
                            Err(_) => self.evict(worker, frame.round, EvictionReason::Protocol),
                        }
                    }
                    Verdict::Stale => self.metrics.stale_frames += 1,
                    Verdict::Evict { round, reason } => self.evict(worker, round, reason),
                    Verdict::Gone | Verdict::Ignored => {}
                }
                // A result, wanted or stale, frees the worker for what waited.
                self.flush(worker);
            }
            Event::Failed {
                worker,
                generation,
                error,
            } => {
                let reason = match error {
                    WireError::ChecksumMismatch { .. } | WireError::BadMagic { .. } => {
                        EvictionReason::CorruptFrame
                    }
                    WireError::UnsupportedVersion { .. } => EvictionReason::VersionMismatch,
                    WireError::FrameTooLarge { .. }
                    | WireError::UnknownFrameKind { .. }
                    | WireError::Malformed { .. } => EvictionReason::Protocol,
                    _ => EvictionReason::Disconnected,
                };
                match self.board.on_failure(worker, generation, reason) {
                    Verdict::Evict { round, reason } => self.evict(worker, round, reason),
                    Verdict::Gone => self.tear_down(worker),
                    _ => {}
                }
            }
        }
    }
}

/// Turns a worker's `TASK_RESULT`, which arrived `arrival_seconds` after its
/// round was submitted, into the round's outcome for that worker.
fn outcome_of(worker: usize, result: TaskResult, arrival_seconds: f64) -> RawOutcome {
    // Worker-reported, so bounded by what the master itself observed: a
    // worker cannot have computed for longer than the master waited, and a
    // claim of 1e300 s must not reach the straggler detector. (`clamp` would
    // propagate a NaN; `max` then `min` turns it into 0.)
    let compute_seconds = result.compute_seconds.max(0.0).min(arrival_seconds);
    RawOutcome {
        worker,
        payload: result.outputs,
        compute_seconds,
        // Everything between the worker finishing compute and the master
        // holding the decoded frame: serialization, the kernel's socket path,
        // and queueing.
        network_seconds: arrival_seconds - compute_seconds,
        arrival_seconds,
        corrupted: false,
    }
}

impl Executor for SocketExecutor {
    fn workers(&self) -> usize {
        self.links.len()
    }

    fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        if blocks.len() > self.links.len() {
            return Err(ExecutorError::TooManyTasks {
                tasks: blocks.len(),
                workers: self.links.len(),
            });
        }
        self.pump(None, None);
        self.metrics.tasks_dropped += self.board.retire_job(job);
        // The job leaves the respawn cache while its new blocks ship: a
        // worker `ensure_live` respawns inside this loop is replayed the
        // *other* jobs' blocks, and gets this job's from the `post` — once.
        self.blocks.remove(&job);
        let mut cached = Vec::with_capacity(blocks.len());
        for (worker, block) in blocks.iter().enumerate() {
            // Encoded once: these bytes are what is queued, what is written
            // and what the cache keeps.
            let frame = block.encoded_frame(job);
            cached.push(CachedBlock {
                frame: frame.clone(),
                modulus: block.modulus,
            });
            if self.ensure_live(worker) {
                self.post(worker, None, frame);
            }
            // Otherwise it stays dead (eviction surfaces at round time) and
            // finds its block in the cache when it comes back.
        }
        self.blocks.insert(job, cached);
        Ok(())
    }

    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<RawOutcome>, ExecutorError> {
        let mut ticket = self.submit_round(job, round, inputs)?;
        let mut outcomes = Vec::with_capacity(inputs.len());
        loop {
            let polled = self.poll_round(&mut ticket, None);
            outcomes.extend(polled.arrivals);
            if polled.pending.is_empty() {
                self.retire_round(ticket);
                return Ok(outcomes);
            }
        }
    }

    fn submit_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<RoundTicket, ExecutorError> {
        let moduli: Vec<u64> = self
            .blocks
            .get(&job)
            .ok_or(ExecutorError::UnknownJob { job })?
            .iter()
            .map(|block| block.modulus)
            .collect();
        let job_width = moduli.len();
        if inputs.len() > job_width {
            return Err(ExecutorError::TooManyTasks {
                tasks: inputs.len(),
                workers: job_width,
            });
        }
        if let Some(churn) = self.churn.as_mut() {
            churn.advance_to(round);
        }
        self.last_evictions.clear();
        self.pump(None, None);
        for worker in 0..inputs.len() {
            if self.churn_down(worker) {
                // Scheduled crash/flap: take the real connection down and
                // skip the round silently — the churn event stream already
                // records why the outcome is absent.
                if self.links[worker].is_some() {
                    self.kill_worker(worker);
                }
                continue;
            }
            if !self.ensure_live(worker) {
                self.evict(worker, round, EvictionReason::Disconnected);
            }
        }

        let ticket = self.board.open(job, Instant::now());
        // The last `TASK` framed, keyed by all its bytes depend on: a
        // training round sends every worker the same weights or errors, so
        // all but a straggler (whose sleep differs) share one frame.
        let mut last: Option<(_, EncodedFrame)> = None;
        for (worker, worker_inputs) in inputs.iter().enumerate() {
            if self.links[worker].is_none() {
                continue; // down or evicted above
            }
            if self.churn.as_ref().is_some_and(|c| c.is_corrupting(worker)) {
                // Corruption window: arm the wire-level payload fault so the
                // worker's next result arrives with a broken checksum and is
                // evicted as a corrupt frame — the real defect, end to end.
                let kind = FaultKind::CorruptPayload;
                self.board
                    .enqueue(worker, Some(ticket), Fault { kind }.encoded_frame());
            }
            let slowdown = self.profile.worker(worker).effective_slowdown()
                * self
                    .churn
                    .as_ref()
                    .map_or(1.0, |c| c.slowdown_multiplier(worker));
            let sleep = slowdown_sleep_seconds(slowdown, self.config.sleep_per_slowdown_unit);
            let key = ((sleep * 1e6) as u64, moduli[worker], worker_inputs);
            let frame = match &last {
                Some((shared, frame)) if key == *shared => frame.clone(),
                _ => {
                    let task = Task {
                        sleep_micros: key.0,
                        inputs: worker_inputs.clone(),
                    };
                    // 2 bytes per element when the inputs are small signed
                    // values of the worker's field, as the paper's quantized
                    // weights and errors are; otherwise 4 or 8.
                    let frame = task.encoded_frame_in(job, round, key.1);
                    last = Some((key, frame.clone()));
                    frame
                }
            };
            self.post(worker, Some(ticket), frame);
        }
        Ok(RoundTicket::live(ticket))
    }

    fn poll_round(&mut self, ticket: &mut RoundTicket, wait: Option<Duration>) -> RoundPoll {
        self.pump(Some(ticket.id), wait.map(|wait| Instant::now() + wait));
        self.board.take_news(ticket.id, Instant::now())
    }

    fn retire_round(&mut self, ticket: RoundTicket) {
        self.metrics.tasks_dropped += self.board.retire(ticket.id);
    }

    fn round_evictions(&self) -> &[Eviction] {
        &self.last_evictions
    }

    fn churn_events(&self) -> &[ChurnEvent] {
        self.churn.as_ref().map_or(&[], ChurnState::events)
    }

    fn live_workers(&self) -> usize {
        self.churn
            .as_ref()
            .map_or(self.links.len(), ChurnState::live_count)
    }
}

impl Drop for SocketExecutor {
    fn drop(&mut self) {
        // Graceful: ask every live worker to exit, then reap.
        let shutdown = EncodedFrame::from(&Frame::new(FrameKind::Shutdown, 0, 0, Vec::new()));
        for worker in 0..self.links.len() {
            let _ = self.send_frame(worker, &shutdown);
        }
        for link in self.links.iter_mut().flatten() {
            if let Some(child) = link.child.as_mut() {
                let deadline = Instant::now() + Duration::from_secs(2);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            thread::sleep(Duration::from_millis(10));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            link.writer.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_version_2_worker_is_refused_at_hello() {
        let hello = |version: u16, frame_version: u16, worker: u32| {
            Hello { version, worker }
                .frame()
                .encode_with_version(frame_version)
        };
        // A wave of one, worker 3.
        let accept = |bytes: Vec<u8>| {
            let index = accept_hello(&mut bytes.as_slice())?;
            claim_slot(&[3], &mut vec![3], index)
        };
        assert_eq!(accept(hello(PROTOCOL_VERSION, PROTOCOL_VERSION, 3)), Ok(3));
        let refused = |bytes: Vec<u8>, why: &str| match accept(bytes) {
            Err(ExecutorError::Spawn { context }) => assert!(context.contains(why), "{context}"),
            other => panic!("accepted a peer it should refuse: {other:?}"),
        };
        // A version-2 worker frames its HELLO as version 2.
        refused(hello(2, 2, 3), "unsupported protocol version 2");
        // A HELLO that names version 2 inside a current frame.
        refused(
            hello(2, PROTOCOL_VERSION, 3),
            "worker speaks protocol version 2",
        );
        refused(
            hello(PROTOCOL_VERSION, PROTOCOL_VERSION, 4),
            "connected as 4",
        );
    }

    #[test]
    fn a_wave_gives_each_index_its_slot_once() {
        let wave = [2, 5, 7];
        let mut open = wave.to_vec();
        // Arrival order is the workers', not the wave's.
        assert_eq!(claim_slot(&wave, &mut open, 7), Ok(7));
        assert_eq!(claim_slot(&wave, &mut open, 2), Ok(2));
        let refused =
            |open: &mut Vec<usize>, index: u32, why: &str| match claim_slot(&wave, open, index) {
                Err(ExecutorError::Spawn { context }) => {
                    assert!(context.contains(why), "{context}")
                }
                other => panic!("gave index {index} a slot: {other:?}"),
            };
        refused(&mut open, 7, "worker 7 connected twice");
        refused(&mut open, 3, "connected as 3, outside the wave [2, 5, 7]");
        assert_eq!(claim_slot(&wave, &mut open, 5), Ok(5));
        assert!(open.is_empty());
        refused(&mut open, 5, "worker 5 connected twice");
    }

    #[test]
    fn worker_reported_compute_time_is_bounded_by_what_the_master_observed() {
        let outcome = |claimed: f64| {
            let result = TaskResult {
                worker: 3,
                compute_seconds: claimed,
                outputs: vec![vec![1, 2]],
            };
            outcome_of(3, result, 0.25)
        };
        // (claimed, kept): a lie in either direction, or a non-number, never
        // leaves [0, arrival] — so it can neither flag the worker as a
        // straggler round after round nor make network time negative.
        for (claimed, kept) in [
            (0.1, 0.1),
            (-1.0, 0.0),
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.25),
            (1e300, 0.25),
        ] {
            let outcome = outcome(claimed);
            assert_eq!(outcome.compute_seconds, kept, "claimed {claimed}");
            assert_eq!(outcome.network_seconds, 0.25 - kept, "claimed {claimed}");
            assert_eq!(outcome.arrival_seconds, 0.25);
            assert_eq!((outcome.worker, outcome.corrupted), (3, false));
        }
    }
}
