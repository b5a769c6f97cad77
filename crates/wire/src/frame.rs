//! The frame layer: every byte on a socket is part of exactly one frame.
//!
//! Layout (all integers little-endian; full spec in `docs/WIRE_FORMAT.md`):
//!
//! ```text
//! offset  size  field
//!      0     4  magic            b"AVCC"
//!      4     2  version          u16, currently 3
//!      6     1  kind             FrameKind discriminant
//!      7     1  flags            reserved — senders write 0, receivers ignore
//!      8     8  job id           u64
//!     16     8  round serial     u64
//!     24     4  payload length   u32 (bytes)
//!     28     n  payload          kind-specific message (see `message`)
//!   28+n     4  checksum         CRC-32C over bytes [0, 28+n)
//! ```
//!
//! Validation order on receive is deliberate: magic → version → length bound
//! → checksum → kind. Version is checked *before* the checksum so a future
//! protocol revision may change the checksum algorithm; the kind byte is
//! checked *after* so an unknown kind is only reported for frames proven
//! intact (a corrupted kind byte surfaces as the checksum failure it is).
//!
//! A frame is encoded by **one routine**, straight into its final wire bytes —
//! header, payload and trailer in one buffer, the payload written in place by
//! its message type, never staged and copied. [`Frame::encode`] goes through
//! it, and so does [`EncodedFrame`], the form a sender keeps when the same
//! bytes will be written more than once or held while the peer is busy.

use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

use crate::codec::WireWriter;
use crate::crc::{crc32c, Crc32c};
use crate::error::WireError;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"AVCC";
/// The protocol version this build speaks. Version 3 may send a `TASK`'s
/// inputs 2 bytes per element, as small signed values of the block's field;
/// version 2 sends a message's element array 4 bytes per element when every
/// element is below `2^32`; version 1 always sent 8.
pub const PROTOCOL_VERSION: u16 = 3;
/// Fixed header size in bytes (magic through payload length).
pub const HEADER_LEN: usize = 28;
/// Trailing checksum size in bytes.
pub const TRAILER_LEN: usize = 4;
/// Default cap on payload size (256 MiB): bounds allocation from a
/// corrupted or hostile length field.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 28;

/// What a frame carries; the `kind` byte at offset 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → master: first frame on a connection, carries the worker's
    /// protocol version and claimed index.
    Hello = 0x01,
    /// Master → worker: accepts the handshake.
    HelloAck = 0x02,
    /// Master → worker: install a coded block for a job (sticky across
    /// rounds — blocks ship once per job, not once per round).
    LoadBlock = 0x10,
    /// Master → worker: compute one round over previously loaded blocks.
    Task = 0x11,
    /// Worker → master: the outputs for one task.
    TaskResult = 0x12,
    /// Master → worker (test harness): arm a one-shot injected fault.
    Fault = 0x20,
    /// Master → worker: drain and exit.
    Shutdown = 0x30,
    /// Worker → master: acknowledges shutdown; connection closes next.
    Bye = 0x31,
    /// Worker → master: a request could not be served (carries a message).
    Error = 0x3F,
}

impl FrameKind {
    /// The wire discriminant.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a kind byte.
    pub fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            0x01 => Self::Hello,
            0x02 => Self::HelloAck,
            0x10 => Self::LoadBlock,
            0x11 => Self::Task,
            0x12 => Self::TaskResult,
            0x20 => Self::Fault,
            0x30 => Self::Shutdown,
            0x31 => Self::Bye,
            0x3F => Self::Error,
            _ => return Err(WireError::UnknownFrameKind { code }),
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Job the frame belongs to (0 for connection-level frames).
    pub job: u64,
    /// Round serial within the job (0 when not round-scoped).
    pub round: u64,
    /// Kind-specific message bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: FrameKind, job: u64, round: u64, payload: Vec<u8>) -> Self {
        Self {
            kind,
            job,
            round,
            payload,
        }
    }

    /// Total on-the-wire size of this frame in bytes.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + TRAILER_LEN
    }

    /// Encodes header + payload + CRC-32C trailer.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_version(PROTOCOL_VERSION)
    }

    /// Encodes with an explicit version word. The checksum is computed over
    /// the bytes actually written, so a non-standard version yields a frame
    /// whose *only* defect is its version — this is how the `WrongVersion`
    /// fault injection isolates version-mismatch handling from checksum
    /// handling.
    pub fn encode_with_version(&self, version: u16) -> Vec<u8> {
        encode_frame(
            version,
            self.kind,
            self.job,
            self.round,
            self.payload.len(),
            |w| w.put_bytes(&self.payload),
        )
    }
}

/// The one frame-encode routine: the 28-byte header, then whatever
/// `write_payload` appends (`payload_len` is a capacity hint; the length field
/// is set from what was actually written), then the CRC-32C of everything
/// before it — one buffer, allocated once, already the bytes for the socket.
fn encode_frame(
    version: u16,
    kind: FrameKind,
    job: u64,
    round: u64,
    payload_len: usize,
    write_payload: impl FnOnce(&mut WireWriter),
) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(HEADER_LEN + payload_len + TRAILER_LEN);
    w.put_bytes(&MAGIC);
    w.put_u16(version);
    w.put_u8(kind.code());
    w.put_u8(0); // flags: reserved
    w.put_u64(job);
    w.put_u64(round);
    w.put_u32(0); // payload length, known once the payload is written
    write_payload(&mut w);
    let mut buf = w.into_bytes();
    let written = (buf.len() - HEADER_LEN) as u32;
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&written.to_le_bytes());
    let checksum = crc32c(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// A frame in its final wire form — header, payload and CRC-32C trailer in
/// one immutable buffer — with the three header fields a sender's bookkeeping
/// reads beside it.
///
/// Encoded once ([`EncodedFrame::build`], or the `encoded_frame` helper of a
/// message type, which writes the payload in place), then shared: clones
/// share the buffer, so the same bytes can sit in a send queue, be written to
/// a socket, and be kept to replay to a reconnecting peer verbatim, checksum
/// included, without ever being re-encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    // Private: they restate what `bytes` already says in its header.
    kind: FrameKind,
    job: u64,
    round: u64,
    bytes: Arc<Vec<u8>>,
}

impl EncodedFrame {
    /// Encodes a frame whose payload `write_payload` appends to the writer it
    /// is handed; `payload_len` sizes the buffer up front.
    pub fn build(
        kind: FrameKind,
        job: u64,
        round: u64,
        payload_len: usize,
        write_payload: impl FnOnce(&mut WireWriter),
    ) -> Self {
        let bytes = encode_frame(
            PROTOCOL_VERSION,
            kind,
            job,
            round,
            payload_len,
            write_payload,
        );
        Self {
            kind,
            job,
            round,
            bytes: Arc::new(bytes),
        }
    }

    /// What the payload is.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// Job the frame belongs to (0 for connection-level frames).
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Round serial within the job (0 when not round-scoped).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The bytes that go on the wire.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total on-the-wire size of this frame in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Writes the frame; returns the bytes written.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<usize, WireError> {
        write_bytes(writer, &self.bytes)
    }
}

impl From<&Frame> for EncodedFrame {
    fn from(frame: &Frame) -> Self {
        Self {
            kind: frame.kind,
            job: frame.job,
            round: frame.round,
            bytes: Arc::new(frame.encode()),
        }
    }
}

/// Encodes and writes one frame; returns the bytes written.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<usize, WireError> {
    write_bytes(writer, &frame.encode())
}

fn write_bytes<W: Write>(writer: &mut W, bytes: &[u8]) -> Result<usize, WireError> {
    writer
        .write_all(bytes)
        .map_err(|e| WireError::io(e, "writing frame"))?;
    writer
        .flush()
        .map_err(|e| WireError::io(e, "flushing frame"))?;
    Ok(bytes.len())
}

/// Reads and validates one frame; returns it with the bytes consumed.
///
/// EOF exactly at a frame boundary is [`WireError::Closed`] (orderly
/// shutdown); EOF anywhere inside a frame is [`WireError::Truncated`] (a
/// partial write reached us before the peer died).
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_payload: usize,
) -> Result<(Frame, usize), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or_closed(reader, &mut header, "frame header")?;

    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic {
            found: [header[0], header[1], header[2], header[3]],
        });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let kind_code = header[6];
    // header[7] is the reserved flags byte: receivers ignore it.
    let job = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let round = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(header[24..28].try_into().expect("4 bytes")) as usize;
    if payload_len > max_payload {
        return Err(WireError::FrameTooLarge {
            len: payload_len,
            max: max_payload,
        });
    }

    let mut body = vec![0u8; payload_len + TRAILER_LEN];
    read_exact_mid_frame(reader, &mut body, "frame payload")?;
    let found = u32::from_le_bytes(body[payload_len..].try_into().expect("4 bytes"));
    let mut crc = Crc32c::new();
    crc.update(&header).update(&body[..payload_len]);
    let computed = crc.finalize();
    if computed != found {
        return Err(WireError::ChecksumMismatch { computed, found });
    }

    let kind = FrameKind::from_code(kind_code)?;
    body.truncate(payload_len);
    Ok((
        Frame {
            kind,
            job,
            round,
            payload: body,
        },
        HEADER_LEN + payload_len + TRAILER_LEN,
    ))
}

/// `read_exact` that maps EOF-before-any-byte to `Closed` and EOF-mid-buffer
/// to `Truncated`.
fn read_exact_or_closed<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed { context }
                } else {
                    WireError::Truncated { context }
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::io(e, context)),
        }
    }
    Ok(())
}

/// `read_exact` inside a frame: any EOF is truncation.
fn read_exact_mid_frame<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Truncated { context }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::io(e, context)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(FrameKind::Task, 7, 42, vec![1, 2, 3, 4, 5])
    }

    #[test]
    fn roundtrip() {
        let frame = sample();
        let bytes = frame.encode();
        assert_eq!(bytes.len(), frame.wire_len());
        let (back, consumed) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(back, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let frame = Frame::new(FrameKind::Shutdown, 0, 0, Vec::new());
        let bytes = frame.encode();
        assert_eq!(bytes.len(), HEADER_LEN + TRAILER_LEN);
        let (back, _) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn eof_at_boundary_is_closed_but_mid_frame_is_truncated() {
        let bytes = sample().encode();
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Closed { .. })
        ));
        for cut in [1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let mut partial = &bytes[..cut];
            assert!(
                matches!(
                    read_frame(&mut partial, DEFAULT_MAX_PAYLOAD),
                    Err(WireError::Truncated { .. })
                ),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_checked_before_checksum() {
        // A frame with a wrong version *and* a CRC valid for its bytes must
        // report the version, proving the check order.
        let bytes = sample().encode_with_version(999);
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion {
                ours: PROTOCOL_VERSION,
                theirs: 999
            })
        ));
    }

    #[test]
    fn every_corrupted_byte_is_caught() {
        // Flip each byte of the frame in turn: every single-byte corruption
        // must surface as *some* WireError (usually ChecksumMismatch; magic/
        // version/length corruptions may be caught earlier), never Ok.
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xA5;
            assert!(
                read_frame(&mut corrupted.as_slice(), DEFAULT_MAX_PAYLOAD).is_err(),
                "byte {i} corruption went undetected"
            );
        }
    }

    #[test]
    fn a_flipped_bit_in_any_lane_of_a_bulk_frame_is_a_checksum_mismatch() {
        // A 1 MiB LOAD_BLOCK goes through the checksum's wide loop, which
        // `read_frame` starts at the payload (the header is its own
        // `update`). One flipped bit in the first or the last byte of any
        // lane — in the first, a middle and the last whole block — or in the
        // trailer must never yield an accepted frame.
        use crate::crc::{LANES, STREAM};
        use crate::message::Block;
        let block = Block {
            modulus: u64::MAX,
            rows: 256,
            cols: 512,
            elements: (0..256 * 512u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        };
        let bytes = block.encoded_frame(3).bytes().to_vec();
        let payload_len = bytes.len() - HEADER_LEN - TRAILER_LEN;
        assert!(payload_len > 1 << 20);
        let (intact, _) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(Block::decode(&intact.payload).unwrap(), block);

        let blocks = payload_len / (LANES * STREAM);
        let mut flips: Vec<usize> = (bytes.len() - TRAILER_LEN..bytes.len()).collect();
        for block in [0, blocks / 2, blocks - 1] {
            for lane in 0..LANES {
                let first = HEADER_LEN + (block * LANES + lane) * STREAM;
                flips.extend([first, first + STREAM - 1]);
            }
        }
        for (case, at) in flips.into_iter().enumerate() {
            let mut corrupted = bytes.clone();
            corrupted[at] ^= 1 << (case % 8);
            assert!(
                matches!(
                    read_frame(&mut corrupted.as_slice(), DEFAULT_MAX_PAYLOAD),
                    Err(WireError::ChecksumMismatch { .. })
                ),
                "flip at byte {at} was not a checksum mismatch"
            );
        }
    }

    #[test]
    fn unknown_kind_reported_only_when_intact() {
        let frame = Frame {
            kind: FrameKind::Task,
            job: 0,
            round: 0,
            payload: Vec::new(),
        };
        let mut bytes = frame.encode();
        // Overwrite the kind byte and fix up the checksum so the frame is
        // intact-but-unknown.
        bytes[6] = 0x7E;
        let crc_at = bytes.len() - TRAILER_LEN;
        let mut crc = Crc32c::new();
        crc.update(&bytes[..crc_at]);
        let fixed = crc.finalize().to_le_bytes();
        bytes[crc_at..].copy_from_slice(&fixed);
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownFrameKind { code: 0x7E })
        ));
    }

    #[test]
    fn oversized_payload_rejected_without_allocation() {
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        header.push(FrameKind::Task.code());
        header.push(0);
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut header.as_slice(), 1024),
            Err(WireError::FrameTooLarge {
                len,
                max: 1024
            }) if len == u32::MAX as usize
        ));
    }

    #[test]
    fn two_frames_back_to_back() {
        let a = sample();
        let b = Frame::new(FrameKind::Bye, 1, 2, vec![9]);
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let mut cursor = stream.as_slice();
        let (fa, _) = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap();
        let (fb, _) = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(fa, a);
        assert_eq!(fb, b);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Closed { .. })
        ));
    }
}
