//! The AVCC wire format: versioned, length-prefixed, CRC-32C-checksummed
//! frames for shipping coded blocks, round inputs and worker results between
//! real processes.
//!
//! Everything below `crates/sim`'s `SocketExecutor` and the `avcc-worker`
//! binary lives here, in dependency order:
//!
//! * [`crc`] — CRC-32C (Castagnoli), bytewise reference + slice-by-8.
//! * [`error`] — [`WireError`], the one error type; its variants are what
//!   the master's eviction machinery keys on.
//! * [`codec`] — little-endian primitives; field elements travel as raw
//!   residues, 4 bytes each when every element of a message is below `2^32`
//!   (the paper's 25-bit field) and 8 otherwise — and a `TASK`'s inputs 2
//!   bytes each when they are small signed values of the worker's field.
//! * [`frame`] — the 28-byte header + payload + checksum framing, with the
//!   magic/version/length/CRC/kind validation pipeline.
//! * [`message`] — per-[`FrameKind`] payload layouts (handshake, blocks,
//!   tasks, results, fault injection, errors).
//! * [`compute`] — worker-side typed blocks, stored as `u32` for the
//!   25-bit field, which read a `TASK`'s inputs straight into their lanes:
//!   the same `mat_vec` kernel the in-process executors run, which is what
//!   makes socket results bit-identical to threaded results.
//! * [`worker`] — the request/response protocol loop shared by the
//!   `avcc-worker` binary and the in-process thread backend.
//!
//! The byte-level layout of every frame, the handshake sequence and the
//! eviction semantics are specified in `docs/WIRE_FORMAT.md`; a test in this
//! crate pins the spec's worked example to the implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod compute;
pub mod crc;
pub mod error;
pub mod frame;
pub mod message;
pub mod worker;

pub use codec::{WireReader, WireWriter};
pub use compute::TypedBlock;
pub use crc::{crc32c, crc32c_bytewise, Crc32c};
pub use error::WireError;
pub use frame::{
    read_frame, write_frame, EncodedFrame, Frame, FrameKind, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
    MAGIC, PROTOCOL_VERSION, TRAILER_LEN,
};
pub use message::{Block, ErrorMsg, Fault, FaultKind, Hello, HelloAck, Task, TaskResult};
pub use worker::{serve_connection, WorkerOptions};
