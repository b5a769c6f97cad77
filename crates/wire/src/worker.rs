//! The worker protocol loop, shared by the `avcc-worker` binary (process
//! backend) and the in-process thread backend of `SocketExecutor`.
//!
//! A worker is a pure request/response state machine over one stream:
//!
//! 1. send `HELLO{version, worker}` — the first bytes on any connection;
//! 2. wait for `HELLO_ACK` (anything else, or a version the master already
//!    rejected by closing, terminates the worker);
//! 3. loop: `LOAD_BLOCK` replaces the job's block with the typed block, or
//!    with the error if it cannot be typed (an unsupported modulus, a
//!    non-canonical element); `TASK` computes over the resident block, its
//!    inputs read against the block's modulus, and replies `TASK_RESULT` (or
//!    `ERROR` if no block / that typing error / a malformed or non-canonical
//!    payload); `FAULT` arms a one-shot injected fault for the next result
//!    send; `SHUTDOWN` replies `BYE` and exits cleanly.
//!
//! Being generic over `Read + Write` keeps the loop transport-agnostic: the
//! binary hands it a `TcpStream` or `UnixStream`, tests can hand it an
//! in-memory duplex pipe.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::thread;
use std::time::{Duration, Instant};

use crate::compute::TypedBlock;
use crate::error::WireError;
use crate::frame::{read_frame, write_frame, Frame, FrameKind, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use crate::message::{ErrorMsg, Fault, FaultKind, Hello, HelloAck, TaskResult};

/// Knobs for the worker loop.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Largest payload the worker will accept.
    pub max_payload: usize,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Runs the worker protocol over `stream` until shutdown (Ok) or a fatal
/// wire error (Err — the caller drops the stream, which is what the master's
/// eviction machinery observes).
///
/// Reads go through an 8 KiB [`BufReader`], so a `TASK` — or any frame that
/// fits — costs one `read` call rather than one for its header and one for
/// its body; a larger frame (a `LOAD_BLOCK`) is read past the buffer
/// straight into its payload. Writes, injected faults included, go to the
/// stream itself.
pub fn serve_connection<S: Read + Write>(
    stream: S,
    worker: u32,
    options: &WorkerOptions,
) -> Result<(), WireError> {
    let mut stream = BufReader::new(stream);
    write_frame(stream.get_mut(), &Hello::new(worker).frame())?;
    let (ack, _) = read_frame(&mut stream, options.max_payload)?;
    if ack.kind != FrameKind::HelloAck {
        return Err(WireError::UnexpectedFrame {
            context: "waiting for HELLO_ACK",
            code: ack.kind.code(),
        });
    }
    HelloAck::decode(&ack.payload)?;

    // Per job: its typed block, or why its last `LOAD_BLOCK` did not type.
    let mut blocks: HashMap<u64, Result<TypedBlock, String>> = HashMap::new();
    let mut armed: Option<FaultKind> = None;
    loop {
        let (frame, _) = read_frame(&mut stream, options.max_payload)?;
        match frame.kind {
            FrameKind::LoadBlock => {
                let typed = TypedBlock::from_payload(&frame.payload).map_err(|e| e.to_string());
                blocks.insert(frame.job, typed);
            }
            FrameKind::Task => {
                // The block first: its modulus is what a 2-byte input means.
                let started = Instant::now();
                let executed = match blocks.get(&frame.job) {
                    None => Err(format!("no block loaded for job {}", frame.job)),
                    Some(Err(message)) => Err(message.clone()),
                    Some(Ok(block)) => block
                        .execute_payload(&frame.payload)
                        .map_err(|err| err.to_string()),
                };
                let response = match executed {
                    Err(message) => ErrorMsg { message }.frame(frame.job, frame.round),
                    Ok((sleep_micros, outputs)) => {
                        if sleep_micros > 0 {
                            thread::sleep(Duration::from_micros(sleep_micros));
                        }
                        TaskResult {
                            worker,
                            compute_seconds: started.elapsed().as_secs_f64(),
                            outputs,
                        }
                        .frame(frame.job, frame.round)
                    }
                };
                send_with_fault(stream.get_mut(), &response, armed.take())?;
            }
            FrameKind::Fault => {
                armed = Some(Fault::decode(&frame.payload)?.kind);
            }
            FrameKind::Shutdown => {
                // Best-effort BYE: the master may already have gone away.
                let _ = write_frame(
                    stream.get_mut(),
                    &Frame::new(FrameKind::Bye, 0, 0, Vec::new()),
                );
                return Ok(());
            }
            other => {
                return Err(WireError::UnexpectedFrame {
                    context: "in the worker task loop",
                    code: other.code(),
                })
            }
        }
    }
}

/// Sends `frame`, applying an armed injected fault if present. Faults that
/// sabotage the connection return `Err` so the caller tears the stream down
/// exactly as a real crash would.
fn send_with_fault<S: Write>(
    stream: &mut S,
    frame: &Frame,
    fault: Option<FaultKind>,
) -> Result<(), WireError> {
    let Some(fault) = fault else {
        write_frame(stream, frame)?;
        return Ok(());
    };
    match fault {
        FaultKind::CorruptPayload => {
            let mut bytes = frame.encode();
            // Flip a payload byte *after* the checksum was computed; if the
            // payload is empty, flip the kind byte instead. Either way the
            // CRC no longer matches the bytes.
            let target = if frame.payload.is_empty() {
                6
            } else {
                HEADER_LEN
            };
            bytes[target] ^= 0xFF;
            write_raw(stream, &bytes)
        }
        FaultKind::BadCrc => {
            let mut bytes = frame.encode();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            write_raw(stream, &bytes)
        }
        FaultKind::WrongVersion => {
            // encode_with_version recomputes the CRC over the altered
            // header, so the version word is the frame's only defect.
            write_raw(stream, &frame.encode_with_version(0xFFFF))
        }
        FaultKind::Truncate => {
            let bytes = frame.encode();
            write_raw(stream, &bytes[..bytes.len() / 2])?;
            Err(WireError::Malformed {
                context: "injected truncation: half a frame written, closing",
            })
        }
        FaultKind::Disconnect => Err(WireError::Malformed {
            context: "injected disconnect: result computed but never sent",
        }),
    }
}

fn write_raw<S: Write>(stream: &mut S, bytes: &[u8]) -> Result<(), WireError> {
    stream
        .write_all(bytes)
        .map_err(|e| WireError::io(e, "writing injected-fault frame"))?;
    stream
        .flush()
        .map_err(|e| WireError::io(e, "flushing injected-fault frame"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PROTOCOL_VERSION;
    use crate::message::{Block, Task};
    use std::io;
    use std::sync::mpsc;

    /// Minimal in-memory duplex: reads pull from one channel, writes push to
    /// another. Enough to drive the worker loop without sockets.
    struct Pipe {
        rx: mpsc::Receiver<Vec<u8>>,
        tx: mpsc::Sender<Vec<u8>>,
        pending: Vec<u8>,
    }

    fn duplex() -> (Pipe, Pipe) {
        let (a_tx, a_rx) = mpsc::channel();
        let (b_tx, b_rx) = mpsc::channel();
        (
            Pipe {
                rx: a_rx,
                tx: b_tx,
                pending: Vec::new(),
            },
            Pipe {
                rx: b_rx,
                tx: a_tx,
                pending: Vec::new(),
            },
        )
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pending.is_empty() {
                match self.rx.recv() {
                    Ok(bytes) => self.pending = bytes,
                    Err(_) => return Ok(0), // peer hung up
                }
            }
            let n = self.pending.len().min(buf.len());
            buf[..n].copy_from_slice(&self.pending[..n]);
            self.pending.drain(..n);
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx
                .send(buf.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn spawn_worker(worker: u32) -> (Pipe, thread::JoinHandle<Result<(), WireError>>) {
        let (master_side, worker_side) = duplex();
        let handle =
            thread::spawn(move || serve_connection(worker_side, worker, &WorkerOptions::default()));
        (master_side, handle)
    }

    fn read_one(master: &mut Pipe) -> Frame {
        read_frame(master, DEFAULT_MAX_PAYLOAD).unwrap().0
    }

    #[test]
    fn handshake_load_task_shutdown() {
        let (mut master, handle) = spawn_worker(4);

        let hello = read_one(&mut master);
        assert_eq!(hello.kind, FrameKind::Hello);
        let hello = Hello::decode(&hello.payload).unwrap();
        assert_eq!(hello.worker, 4);
        assert_eq!(hello.version, PROTOCOL_VERSION);

        write_frame(
            &mut master,
            &HelloAck {
                worker: 4,
                workers: 5,
            }
            .frame(),
        )
        .unwrap();

        let block = Block {
            modulus: 251,
            rows: 2,
            cols: 2,
            elements: vec![1, 2, 3, 4],
        };
        write_frame(&mut master, &block.frame(11)).unwrap();
        write_frame(
            &mut master,
            &Task {
                sleep_micros: 0,
                inputs: vec![vec![5, 6]],
            }
            .frame(11, 1),
        )
        .unwrap();

        let result = read_one(&mut master);
        assert_eq!(result.kind, FrameKind::TaskResult);
        assert_eq!((result.job, result.round), (11, 1));
        let result = TaskResult::decode(&result.payload).unwrap();
        // [1 2; 3 4] * [5, 6] = [17, 39] mod 251
        assert_eq!(result.outputs, vec![vec![17, 39]]);
        assert_eq!(result.worker, 4);
        assert!(result.compute_seconds >= 0.0);

        write_frame(&mut master, &Frame::new(FrameKind::Shutdown, 0, 0, vec![])).unwrap();
        assert_eq!(read_one(&mut master).kind, FrameKind::Bye);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn task_without_block_yields_error_frame() {
        let (mut master, handle) = spawn_worker(0);
        assert_eq!(read_one(&mut master).kind, FrameKind::Hello);
        write_frame(
            &mut master,
            &HelloAck {
                worker: 0,
                workers: 1,
            }
            .frame(),
        )
        .unwrap();
        write_frame(
            &mut master,
            &Task {
                sleep_micros: 0,
                inputs: vec![],
            }
            .frame(99, 1),
        )
        .unwrap();
        let reply = read_one(&mut master);
        assert_eq!(reply.kind, FrameKind::Error);
        let msg = ErrorMsg::decode(&reply.payload).unwrap();
        assert!(msg.message.contains("job 99"), "{}", msg.message);
        write_frame(&mut master, &Frame::new(FrameKind::Shutdown, 0, 0, vec![])).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn task_inputs_are_read_against_the_blocks_modulus() {
        let (mut master, handle) = spawn_worker(2);
        assert_eq!(read_one(&mut master).kind, FrameKind::Hello);
        write_frame(
            &mut master,
            &HelloAck {
                worker: 2,
                workers: 3,
            }
            .frame(),
        )
        .unwrap();
        let q = (1 << 25) - 39;
        for (job, modulus) in [(1, q), (2, 251)] {
            let block = Block {
                modulus,
                rows: 1,
                cols: 2,
                elements: vec![1, 2],
            };
            write_frame(&mut master, &block.frame(job)).unwrap();
        }
        let task = Task {
            sleep_micros: 0,
            inputs: vec![vec![5, q - 1]],
        };
        let send = |master: &mut Pipe, job: u64, payload: Vec<u8>| {
            write_frame(master, &Frame::new(FrameKind::Task, job, 1, payload)).unwrap();
            read_one(master)
        };
        // 2 bytes wide against the 25-bit block: 5 + 2·(q − 1) = 3 mod q.
        let reply = send(&mut master, 1, task.encode_in(q));
        assert_eq!(reply.kind, FrameKind::TaskResult);
        assert_eq!(
            TaskResult::decode(&reply.payload).unwrap().outputs,
            vec![vec![3]]
        );
        // The same bytes against the 251 block, and a length no width
        // explains: ERROR replies, and the worker serves on.
        let mut odd = task.encode();
        odd.push(0);
        for (job, payload) in [(2, task.encode_in(q)), (1, odd)] {
            let reply = send(&mut master, job, payload);
            assert_eq!(reply.kind, FrameKind::Error);
            let message = ErrorMsg::decode(&reply.payload).unwrap().message;
            assert!(message.contains("malformed"), "{message}");
        }
        let reply = send(
            &mut master,
            2,
            Task {
                inputs: vec![vec![5, 250]],
                ..task
            }
            .encode(),
        );
        assert_eq!(
            TaskResult::decode(&reply.payload).unwrap().outputs,
            vec![vec![(5 + 2 * 250) % 251]]
        );
        write_frame(&mut master, &Frame::new(FrameKind::Shutdown, 0, 0, vec![])).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_block_it_cannot_type_draws_an_error_and_the_connection_serves_on() {
        let (mut master, handle) = spawn_worker(3);
        assert_eq!(read_one(&mut master).kind, FrameKind::Hello);
        write_frame(
            &mut master,
            &HelloAck {
                worker: 3,
                workers: 4,
            }
            .frame(),
        )
        .unwrap();
        let q = (1 << 25) - 39;
        let block = |modulus, elements| Block {
            modulus,
            rows: 1,
            cols: 2,
            elements,
        };
        let task = Task {
            sleep_micros: 0,
            inputs: vec![vec![5, 7]],
        };
        let run = |master: &mut Pipe, load: Block, round: u64| {
            write_frame(master, &load.frame(5)).unwrap();
            write_frame(master, &task.frame(5, round)).unwrap();
            read_one(master)
        };
        let error = |reply: Frame| {
            assert_eq!(reply.kind, FrameKind::Error);
            ErrorMsg::decode(&reply.payload).unwrap().message
        };
        // 2^61 − 1 is no supported modulus: the next task gets the error.
        let message = error(run(&mut master, block((1 << 61) - 1, vec![1, 2]), 1));
        assert!(message.contains("unsupported field modulus"), "{message}");
        // A valid block replaces the kept error: 5·1 + 7·2 = 19.
        let reply = run(&mut master, block(q, vec![1, 2]), 2);
        assert_eq!(reply.kind, FrameKind::TaskResult);
        assert_eq!(
            TaskResult::decode(&reply.payload).unwrap().outputs,
            vec![vec![19]]
        );
        // A failed re-load drops that block rather than leave it serving.
        let message = error(run(&mut master, block(q, vec![1, q]), 3));
        assert!(message.contains("non-canonical"), "{message}");
        write_frame(&mut master, &Frame::new(FrameKind::Shutdown, 0, 0, vec![])).unwrap();
        assert_eq!(read_one(&mut master).kind, FrameKind::Bye);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn injected_faults_produce_the_advertised_defects() {
        use FaultKind::*;
        for kind in [CorruptPayload, BadCrc, WrongVersion, Truncate, Disconnect] {
            let (mut master, handle) = spawn_worker(1);
            assert_eq!(read_one(&mut master).kind, FrameKind::Hello);
            write_frame(
                &mut master,
                &HelloAck {
                    worker: 1,
                    workers: 2,
                }
                .frame(),
            )
            .unwrap();
            let block = Block {
                modulus: 251,
                rows: 1,
                cols: 1,
                elements: vec![2],
            };
            write_frame(&mut master, &block.frame(1)).unwrap();
            write_frame(&mut master, &Fault { kind }.frame()).unwrap();
            write_frame(
                &mut master,
                &Task {
                    sleep_micros: 0,
                    inputs: vec![vec![3]],
                }
                .frame(1, 1),
            )
            .unwrap();

            let observed = read_frame(&mut master, DEFAULT_MAX_PAYLOAD);
            match kind {
                CorruptPayload | BadCrc => assert!(
                    matches!(observed, Err(WireError::ChecksumMismatch { .. })),
                    "{kind:?} -> {observed:?}"
                ),
                WrongVersion => assert!(
                    matches!(
                        observed,
                        Err(WireError::UnsupportedVersion { theirs: 0xFFFF, .. })
                    ),
                    "{kind:?} -> {observed:?}"
                ),
                Truncate => assert!(
                    matches!(observed, Err(WireError::Truncated { .. })),
                    "{kind:?} -> {observed:?}"
                ),
                Disconnect => assert!(
                    matches!(observed, Err(WireError::Closed { .. })),
                    "{kind:?} -> {observed:?}"
                ),
            }
            // The worker loop itself exits with the injection error for the
            // connection-sabotaging faults, Ok-continues otherwise.
            match kind {
                Truncate | Disconnect => assert!(handle.join().unwrap().is_err()),
                WrongVersion => {
                    // read_frame stopped at the header, so the rest of the
                    // faulted frame is still buffered: the master side of a
                    // real runtime evicts (stops reading) here. Just shut
                    // the worker down without reading further.
                    write_frame(&mut master, &Frame::new(FrameKind::Shutdown, 0, 0, vec![]))
                        .unwrap();
                    handle.join().unwrap().unwrap();
                }
                CorruptPayload | BadCrc => {
                    // The corrupted frame had an intact length field, so the
                    // stream stays frame-aligned: a clean round must follow.
                    write_frame(
                        &mut master,
                        &Task {
                            sleep_micros: 0,
                            inputs: vec![vec![3]],
                        }
                        .frame(1, 2),
                    )
                    .unwrap();
                    let next = read_one(&mut master);
                    assert_eq!(next.kind, FrameKind::TaskResult);
                    assert_eq!(
                        TaskResult::decode(&next.payload).unwrap().outputs,
                        vec![vec![6]]
                    );
                    write_frame(&mut master, &Frame::new(FrameKind::Shutdown, 0, 0, vec![]))
                        .unwrap();
                    handle.join().unwrap().unwrap();
                }
            }
        }
    }
}
