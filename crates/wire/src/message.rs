//! Payload layouts for every [`FrameKind`].
//!
//! Each message type knows how to `encode` itself into payload bytes and
//! `decode` itself back, and has a `frame(...)` helper producing the full
//! [`Frame`]. The messages a master queues, and may have to hold or replay —
//! [`Block`], [`Task`], [`Fault`] — also have `encoded_frame(...)`, the frame
//! in its final wire bytes ([`EncodedFrame`]); the two that carry element
//! arrays write them straight into that one buffer, with no staged copy.
//! Counts are explicit (`u32`) and validated against the payload
//! length on decode; every decoder finishes with `expect_end` or an element
//! array that must end the payload exactly, so trailing bytes are a protocol
//! violation rather than silently ignored padding.
//!
//! The three messages that carry field elements — [`Block`], [`Task`],
//! [`TaskResult`] — keep them as `u64` residues in memory and send each
//! message's elements 4 bytes wide when all of them are below `2^32` (every
//! residue of the paper's 25-bit field), 8 bytes wide otherwise
//! (`codec::ElementWidth`). A [`Task`] framed for a worker whose block
//! modulus the master knows ([`Task::encoded_frame_in`]) also goes 2 bytes
//! wide when every input is a small signed value — the paper's quantized
//! weights and errors. The receiver reads the width off the payload length.
//! Byte-level layouts are specified in `docs/WIRE_FORMAT.md`.

use crate::codec::{ElementWidth, WireReader, WireWriter};
use crate::error::WireError;
use crate::frame::{EncodedFrame, Frame, FrameKind, PROTOCOL_VERSION};

/// Worker → master handshake opener.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the worker speaks.
    pub version: u16,
    /// The worker index it was launched as.
    pub worker: u32,
}

impl Hello {
    /// A hello for this build's protocol version.
    pub fn new(worker: u32) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            worker,
        }
    }

    /// Payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(6);
        w.put_u16(self.version);
        w.put_u32(self.worker);
        w.into_bytes()
    }

    /// Parses payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let version = r.take_u16("HELLO version")?;
        let worker = r.take_u32("HELLO worker")?;
        r.expect_end("trailing bytes after HELLO")?;
        Ok(Self { version, worker })
    }

    /// The full frame (job/round are 0: connection-scoped).
    pub fn frame(&self) -> Frame {
        Frame::new(FrameKind::Hello, 0, 0, self.encode())
    }
}

/// Master → worker handshake acceptance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The index the master registered this connection under.
    pub worker: u32,
    /// Total fleet width, for the worker's own logging.
    pub workers: u32,
}

impl HelloAck {
    /// Payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(8);
        w.put_u32(self.worker);
        w.put_u32(self.workers);
        w.into_bytes()
    }

    /// Parses payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let worker = r.take_u32("HELLO_ACK worker")?;
        let workers = r.take_u32("HELLO_ACK workers")?;
        r.expect_end("trailing bytes after HELLO_ACK")?;
        Ok(Self { worker, workers })
    }

    /// The full frame.
    pub fn frame(&self) -> Frame {
        Frame::new(FrameKind::HelloAck, 0, 0, self.encode())
    }
}

/// Master → worker: a coded matrix block, installed once per job.
///
/// Elements are raw canonical residues, on the wire 4 bytes each when the
/// modulus is at most `2^32`; the modulus word lets the worker select its typed
/// kernel (and reject moduli it does not support) without any out-of-band
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The prime modulus the elements live under.
    pub modulus: u64,
    /// Row count.
    pub rows: u32,
    /// Column count.
    pub cols: u32,
    /// `rows * cols` elements, row-major.
    pub elements: Vec<u64>,
}

impl Block {
    fn width(&self) -> ElementWidth {
        ElementWidth::of([self.elements.as_slice()])
    }

    fn payload_len(&self, width: ElementWidth) -> usize {
        16 + self.elements.len() * width.bytes()
    }

    fn write_payload(&self, w: &mut WireWriter, width: ElementWidth) {
        w.put_u64(self.modulus);
        w.put_u32(self.rows);
        w.put_u32(self.cols);
        w.put_elements(&self.elements, width);
    }

    /// Payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let width = self.width();
        let mut w = WireWriter::with_capacity(self.payload_len(width));
        self.write_payload(&mut w, width);
        w.into_bytes()
    }

    /// Parses payload bytes, validating `rows * cols` against the actual
    /// element count.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let modulus = r.take_u64("BLOCK modulus")?;
        let rows = r.take_u32("BLOCK rows")?;
        let cols = r.take_u32("BLOCK cols")?;
        let count = (rows as usize)
            .checked_mul(cols as usize)
            .ok_or(WireError::Malformed {
                context: "BLOCK rows*cols overflows",
            })?;
        let (width, elements) = r.take_element_bytes(
            count,
            "BLOCK elements",
            "trailing bytes after BLOCK elements",
            None,
        )?;
        Ok(Self {
            modulus,
            rows,
            cols,
            elements: width.read(elements),
        })
    }

    /// The full `LOAD_BLOCK` frame for `job`.
    pub fn frame(&self, job: u64) -> Frame {
        Frame::new(FrameKind::LoadBlock, job, 0, self.encode())
    }

    /// The `LOAD_BLOCK` frame for `job` in its final wire bytes, the elements
    /// serialized straight into them.
    pub fn encoded_frame(&self, job: u64) -> EncodedFrame {
        let width = self.width();
        EncodedFrame::build(FrameKind::LoadBlock, job, 0, self.payload_len(width), |w| {
            self.write_payload(w, width)
        })
    }
}

/// Takes the rest of the payload as `functions` vectors of `len` elements
/// each and returns its width and bytes ([`WireReader::take_element_bytes`];
/// `task_modulus` as there). Both counts come off the wire unvalidated, so
/// they are bounded by the bytes actually present *before* any allocation or
/// loop, and zero-length vectors — which would let `functions` grow to 2³²
/// at no byte cost — are malformed.
fn take_vectors<'a>(
    reader: &mut WireReader<'a>,
    functions: usize,
    len: usize,
    context: &'static str,
    trailing: &'static str,
    task_modulus: Option<u64>,
) -> Result<(ElementWidth, &'a [u8]), WireError> {
    if functions > 0 && len == 0 {
        return Err(WireError::Malformed { context });
    }
    let count = functions
        .checked_mul(len)
        .ok_or(WireError::Truncated { context })?;
    reader.take_element_bytes(count, context, trailing, task_modulus)
}

/// The vectors of `len` elements of an element array of `width` that
/// [`take_vectors`] accepted.
fn vectors(
    elements: &[u8],
    len: usize,
    width: ElementWidth,
) -> impl ExactSizeIterator<Item = &[u8]> {
    // An accepted array is empty when `len` is 0.
    elements.chunks_exact((len * width.bytes()).max(1))
}

/// A `TASK` payload parsed down to its element array, whose vectors are left
/// as bytes: [`Task::decode`] reads them into `u64`s, and
/// [`TypedBlock::execute_payload`](crate::TypedBlock::execute_payload) lifts
/// them straight into a block's storage.
pub(crate) struct TaskPayload<'a> {
    /// The injected straggler delay.
    pub sleep_micros: u64,
    input_len: usize,
    /// The width of the inputs.
    pub width: ElementWidth,
    /// The inputs' element bytes, `input_len` elements each.
    elements: &'a [u8],
}

impl<'a> TaskPayload<'a> {
    /// Parses `payload`; `block_modulus` is that of the block the task runs
    /// on, when the receiver has one, which lets the inputs be 2 bytes wide.
    pub fn parse(payload: &'a [u8], block_modulus: Option<u64>) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload);
        let sleep_micros = r.take_u64("TASK sleep")?;
        let functions = r.take_u32("TASK functions")? as usize;
        let input_len = r.take_u32("TASK input_len")? as usize;
        let (width, elements) = take_vectors(
            &mut r,
            functions,
            input_len,
            "TASK inputs",
            "trailing bytes after TASK inputs",
            block_modulus,
        )?;
        Ok(Self {
            sleep_micros,
            input_len,
            width,
            elements,
        })
    }

    /// Each input's element bytes, in order.
    pub fn inputs(&self) -> impl ExactSizeIterator<Item = &'a [u8]> {
        vectors(self.elements, self.input_len, self.width)
    }
}

/// The width every element array of a message travels at.
fn width_of(vectors: &[Vec<u64>]) -> ElementWidth {
    ElementWidth::of(vectors.iter().map(Vec::as_slice))
}

/// Master → worker: one round's inputs (the block is already resident).
///
/// `inputs` is rectangular: `functions` vectors of `input_len` elements each
/// — one per function when a job batches several functions over the same
/// encoded dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Injected straggler delay the worker must sleep before replying
    /// (micro­seconds; 0 for an honest fast worker).
    pub sleep_micros: u64,
    /// The function inputs, each of the same length.
    pub inputs: Vec<Vec<u64>>,
}

impl Task {
    fn payload_len(&self, width: ElementWidth) -> usize {
        16 + self.inputs.iter().map(Vec::len).sum::<usize>() * width.bytes()
    }

    fn write_payload(&self, w: &mut WireWriter, width: ElementWidth) {
        let input_len = self.inputs.first().map_or(0, Vec::len);
        debug_assert!(self.inputs.iter().all(|i| i.len() == input_len));
        w.put_u64(self.sleep_micros);
        w.put_u32(self.inputs.len() as u32);
        w.put_u32(input_len as u32);
        for input in &self.inputs {
            w.put_elements(input, width);
        }
    }

    fn encode_at(&self, width: ElementWidth) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.payload_len(width));
        self.write_payload(&mut w, width);
        w.into_bytes()
    }

    fn encoded_frame_at(&self, job: u64, round: u64, width: ElementWidth) -> EncodedFrame {
        EncodedFrame::build(FrameKind::Task, job, round, self.payload_len(width), |w| {
            self.write_payload(w, width)
        })
    }

    /// Payload bytes, 4 or 8 per element: the encoding for a receiver that
    /// may not know the block's modulus.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_at(width_of(&self.inputs))
    }

    /// Payload bytes for a worker whose block is of `modulus`: 2 bytes per
    /// element when `modulus > 2^16` and every input element is within
    /// `2^15` of 0 or of `modulus` (each then travels as the `i16` its
    /// residue is congruent to), else exactly [`Task::encode`].
    pub fn encode_in(&self, modulus: u64) -> Vec<u8> {
        self.encode_at(ElementWidth::of_task_inputs(&self.inputs, modulus))
    }

    /// Parses payload bytes of 4 or 8 bytes per element. A 2-byte array means
    /// nothing without the block's modulus, and is shorter than 4 bytes per
    /// element, so it is [`WireError::Truncated`] here; a worker reads one
    /// with [`TypedBlock::execute_payload`](crate::TypedBlock::execute_payload).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let task = TaskPayload::parse(bytes, None)?;
        Ok(Self {
            sleep_micros: task.sleep_micros,
            inputs: task.inputs().map(|input| task.width.read(input)).collect(),
        })
    }

    /// The full frame for `(job, round)`, 4 or 8 bytes per element.
    pub fn frame(&self, job: u64, round: u64) -> Frame {
        Frame::new(FrameKind::Task, job, round, self.encode())
    }

    /// The frame for `(job, round)` in its final wire bytes, 4 or 8 bytes per
    /// element.
    pub fn encoded_frame(&self, job: u64, round: u64) -> EncodedFrame {
        self.encoded_frame_at(job, round, width_of(&self.inputs))
    }

    /// The frame for `(job, round)` in its final wire bytes, for a worker
    /// whose block for `job` is of `modulus`: the payload of
    /// [`Task::encode_in`].
    pub fn encoded_frame_in(&self, job: u64, round: u64, modulus: u64) -> EncodedFrame {
        self.encoded_frame_at(
            job,
            round,
            ElementWidth::of_task_inputs(&self.inputs, modulus),
        )
    }
}

/// Worker → master: the outputs for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    /// The worker's index (redundant with the connection, kept for
    /// self-describing frames in captures).
    pub worker: u32,
    /// Wall-clock compute time at the worker (includes any injected
    /// straggler sleep), as an IEEE-754 bit pattern on the wire.
    pub compute_seconds: f64,
    /// One output vector per function, all the same length.
    pub outputs: Vec<Vec<u64>>,
}

impl TaskResult {
    /// Payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let output_len = self.outputs.first().map_or(0, Vec::len);
        debug_assert!(self.outputs.iter().all(|o| o.len() == output_len));
        let width = width_of(&self.outputs);
        let mut w = WireWriter::with_capacity(20 + self.outputs.len() * output_len * width.bytes());
        w.put_u32(self.worker);
        w.put_f64(self.compute_seconds);
        w.put_u32(self.outputs.len() as u32);
        w.put_u32(output_len as u32);
        for output in &self.outputs {
            w.put_elements(output, width);
        }
        w.into_bytes()
    }

    /// Parses payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let worker = r.take_u32("RESULT worker")?;
        let compute_seconds = r.take_f64("RESULT compute_seconds")?;
        let functions = r.take_u32("RESULT functions")? as usize;
        let output_len = r.take_u32("RESULT output_len")? as usize;
        let (width, elements) = take_vectors(
            &mut r,
            functions,
            output_len,
            "RESULT outputs",
            "trailing bytes after RESULT outputs",
            None,
        )?;
        Ok(Self {
            worker,
            compute_seconds,
            outputs: vectors(elements, output_len, width)
                .map(|output| width.read(output))
                .collect(),
        })
    }

    /// The full frame for `(job, round)`.
    pub fn frame(&self, job: u64, round: u64) -> Frame {
        Frame::new(FrameKind::TaskResult, job, round, self.encode())
    }
}

/// The injectable one-shot faults a worker can be armed with (test harness
/// only — a production worker simply never receives `FAULT` frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultKind {
    /// Flip a payload byte after the checksum is computed → the master sees
    /// a checksum mismatch.
    CorruptPayload = 1,
    /// Flip a byte of the checksum itself.
    BadCrc = 2,
    /// Write only the first half of the result frame, then drop the
    /// connection.
    Truncate = 3,
    /// Send the result with protocol version `0xFFFF` (checksum valid).
    WrongVersion = 4,
    /// Compute the result, then drop the connection without sending it.
    Disconnect = 5,
}

impl FaultKind {
    /// Parses the discriminant byte.
    pub fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            1 => Self::CorruptPayload,
            2 => Self::BadCrc,
            3 => Self::Truncate,
            4 => Self::WrongVersion,
            5 => Self::Disconnect,
            _ => {
                return Err(WireError::Malformed {
                    context: "unknown FAULT kind",
                })
            }
        })
    }
}

/// Master → worker: arm `kind` for the worker's next result send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The fault to inject.
    pub kind: FaultKind,
}

impl Fault {
    /// Payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        vec![self.kind as u8]
    }

    /// Parses payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let kind = FaultKind::from_code(r.take_u8("FAULT kind")?)?;
        r.expect_end("trailing bytes after FAULT")?;
        Ok(Self { kind })
    }

    /// The full frame.
    pub fn frame(&self) -> Frame {
        Frame::new(FrameKind::Fault, 0, 0, self.encode())
    }

    /// The frame in its final wire bytes.
    pub fn encoded_frame(&self) -> EncodedFrame {
        EncodedFrame::from(&self.frame())
    }
}

/// Worker → master: a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorMsg {
    /// Human-readable reason (UTF-8).
    pub message: String,
}

impl ErrorMsg {
    /// Payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.message.as_bytes().to_vec()
    }

    /// Parses payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let message = String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed {
            context: "ERROR message is not UTF-8",
        })?;
        Ok(Self { message })
    }

    /// The full frame for `(job, round)`.
    pub fn frame(&self, job: u64, round: u64) -> Frame {
        Frame::new(FrameKind::Error, job, round, self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let msg = Hello::new(3);
        let back = Hello::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
        assert_eq!(back.version, PROTOCOL_VERSION);
        assert_eq!(msg.frame().kind, FrameKind::Hello);
    }

    #[test]
    fn hello_ack_roundtrip() {
        let msg = HelloAck {
            worker: 2,
            workers: 12,
        };
        assert_eq!(HelloAck::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn block_roundtrip() {
        let msg = Block {
            modulus: (1 << 25) - 39,
            rows: 3,
            cols: 4,
            elements: (0..12).collect(),
        };
        let frame = msg.frame(9);
        assert_eq!(frame.kind, FrameKind::LoadBlock);
        assert_eq!(frame.job, 9);
        assert_eq!(Block::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn block_element_count_must_match_dims() {
        let msg = Block {
            modulus: 251,
            rows: 3,
            cols: 4,
            elements: (0..12).collect(),
        };
        let mut bytes = msg.encode();
        bytes.extend_from_slice(&0u64.to_le_bytes()); // 13th element
        assert!(Block::decode(&bytes).is_err());
        bytes.truncate(bytes.len() - 16); // 11 elements
        assert!(matches!(
            Block::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn task_roundtrip() {
        let msg = Task {
            sleep_micros: 1500,
            inputs: vec![vec![1, 2, 3], vec![4, 5, 6]],
        };
        assert_eq!(Task::decode(&msg.encode()).unwrap(), msg);
        assert_eq!(msg.encode().len(), 16 + 2 * 3 * 4);
        // One element of 2^32 or more sends the whole message 8 bytes wide.
        let wide = Task {
            sleep_micros: 1500,
            inputs: vec![vec![1, 2, 3], vec![4, 5, 1 << 32]],
        };
        assert_eq!(Task::decode(&wide.encode()).unwrap(), wide);
        assert_eq!(wide.encode().len(), 16 + 2 * 3 * 8);

        // To a worker whose block is of the 25-bit field, small values go 2
        // bytes wide; Task::decode, which has no modulus, cannot read them.
        let q = (1 << 25) - 39;
        assert_eq!(msg.encode_in(q).len(), 16 + 2 * 3 * 2);
        assert_eq!(
            Task::decode(&msg.encode_in(q)),
            Err(WireError::Truncated {
                context: "TASK inputs"
            })
        );
        // Not to a block of q ≤ 2^16, and not with an element that does not
        // fit: then exactly the modulus-less encoding.
        assert_eq!(msg.encode_in(251), msg.encode());
        assert_eq!(wide.encode_in(q), wide.encode());
    }

    #[test]
    fn task_result_roundtrip() {
        let msg = TaskResult {
            worker: 5,
            compute_seconds: 0.001_234,
            outputs: vec![vec![10, 20], vec![30, 40], vec![50, 60]],
        };
        assert_eq!(TaskResult::decode(&msg.encode()).unwrap(), msg);
        assert_eq!(msg.encode().len(), 20 + 3 * 2 * 4);
        let wide = TaskResult {
            outputs: vec![vec![10, u64::MAX], vec![30, 40], vec![50, 60]],
            ..msg
        };
        assert_eq!(TaskResult::decode(&wide.encode()).unwrap(), wide);
        assert_eq!(wide.encode().len(), 20 + 3 * 2 * 8);
    }

    #[test]
    fn empty_task_result_roundtrip() {
        let msg = TaskResult {
            worker: 0,
            compute_seconds: 0.0,
            outputs: Vec::new(),
        };
        assert_eq!(TaskResult::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn twenty_byte_task_result_cannot_kill_the_master() {
        // ROADMAP's one-frame master kill: a 20-byte, CRC-valid TASK_RESULT
        // whose `functions` word asks for billions of (zero-length) vectors.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u32.to_le_bytes()); // worker
        payload.extend_from_slice(&0f64.to_bits().to_le_bytes()); // compute_seconds
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // functions
        payload.extend_from_slice(&0u32.to_le_bytes()); // output_len
        assert_eq!(payload.len(), 20);
        let wire = Frame::new(FrameKind::TaskResult, 1, 2, payload).encode();
        let (frame, _) =
            crate::frame::read_frame(&mut wire.as_slice(), crate::frame::DEFAULT_MAX_PAYLOAD)
                .expect("the frame itself is valid");
        assert_eq!(
            TaskResult::decode(&frame.payload),
            Err(WireError::Malformed {
                context: "RESULT outputs"
            })
        );

        // Every hostile shape of an element array, at both widths, on both
        // sides: TASK (8 bytes before its counts) and TASK_RESULT (12). The
        // width is read off the length, so a length that is neither 4n nor
        // 8n is rejected before any element is read or allocated.
        type Vectors = Result<Vec<Vec<u64>>, WireError>;
        type Decoder = fn(&[u8]) -> Vectors;
        let neither = WireError::Malformed {
            context: "element array is neither 4 nor 8 bytes per element",
        };
        let sides: [(usize, Decoder, &str, &str); 2] = [
            (
                8,
                |bytes| Task::decode(bytes).map(|task| task.inputs),
                "TASK inputs",
                "trailing bytes after TASK inputs",
            ),
            (
                12,
                |bytes| TaskResult::decode(bytes).map(|result| result.outputs),
                "RESULT outputs",
                "trailing bytes after RESULT outputs",
            ),
        ];
        for (prefix, decode, context, trailing) in sides {
            let payload = |functions: u32, len: u32, element_bytes: usize| {
                let mut bytes = vec![0u8; prefix];
                bytes.extend_from_slice(&functions.to_le_bytes());
                bytes.extend_from_slice(&len.to_le_bytes());
                bytes.resize(bytes.len() + element_bytes, 0);
                bytes
            };
            let truncated = WireError::Truncated { context };
            let malformed = WireError::Malformed { context };
            let trailing = WireError::Malformed { context: trailing };
            let zeros = vec![vec![0u64; 3]; 2];
            let cases: Vec<(&str, Vec<u8>, Vectors)> = vec![
                ("2 × 3, 4 bytes wide", payload(2, 3, 24), Ok(zeros.clone())),
                ("2 × 3, 8 bytes wide", payload(2, 3, 48), Ok(zeros)),
                (
                    "one byte short of 4n",
                    payload(2, 3, 23),
                    Err(truncated.clone()),
                ),
                (
                    "one byte long of 4n",
                    payload(2, 3, 25),
                    Err(neither.clone()),
                ),
                (
                    "one byte short of 8n",
                    payload(2, 3, 47),
                    Err(neither.clone()),
                ),
                (
                    "one byte long of 8n",
                    payload(2, 3, 49),
                    Err(trailing.clone()),
                ),
                ("neither, mid-way", payload(2, 3, 36), Err(neither.clone())),
                (
                    "2^32 empty vectors",
                    payload(u32::MAX, 0, 0),
                    Err(malformed),
                ),
                (
                    "counts beyond the payload",
                    payload(u32::MAX, u32::MAX, 8),
                    Err(truncated),
                ),
                ("no vectors, no bytes", payload(0, 5, 0), Ok(Vec::new())),
                ("no vectors, one byte", payload(0, 5, 1), Err(trailing)),
            ];
            for (name, bytes, expected) in cases {
                assert_eq!(decode(&bytes), expected, "{context}: {name}");
            }
            // The 20-byte kill and its 16-byte TASK twin.
            assert_eq!(payload(u32::MAX, 0, 0).len(), prefix + 8);
        }
    }

    #[test]
    fn frames_encoded_in_place_are_the_bytes_of_the_staged_encoding() {
        // One wire format, two ways to reach it: the payload staged in a
        // `Frame` and copied, or written straight into the final buffer.
        let block = Block {
            modulus: 251,
            rows: 5,
            cols: 7,
            elements: (0..35).collect(), // crosses the writer's 32-element stage
        };
        let wide_block = Block {
            modulus: u64::MAX,
            elements: (0..35).map(|i| i << 40).collect(), // and its 16-element one
            ..block.clone()
        };
        let task = Task {
            sleep_micros: 1500,
            inputs: vec![(0..20).collect(), (20..40).collect()],
        };
        let wide_task = Task {
            sleep_micros: 1500,
            inputs: vec![(0..20).collect(), (20..40).map(|i| i << 40).collect()],
        };
        let fault = Fault {
            kind: FaultKind::Truncate,
        };
        let shutdown = Frame::new(FrameKind::Shutdown, 0, 0, Vec::new());
        let pairs = [
            (block.encoded_frame(9), block.frame(9)),
            (wide_block.encoded_frame(9), wide_block.frame(9)),
            (task.encoded_frame(9, 4), task.frame(9, 4)),
            (wide_task.encoded_frame(9, 4), wide_task.frame(9, 4)),
            (
                Task {
                    sleep_micros: 0,
                    inputs: Vec::new(),
                }
                .encoded_frame(1, 2),
                Task {
                    sleep_micros: 0,
                    inputs: Vec::new(),
                }
                .frame(1, 2),
            ),
            (
                task.encoded_frame_in(9, 4, (1 << 25) - 39),
                Frame::new(FrameKind::Task, 9, 4, task.encode_in((1 << 25) - 39)),
            ),
            (fault.encoded_frame(), fault.frame()),
            (EncodedFrame::from(&shutdown), shutdown.clone()),
        ];
        for (encoded, staged) in pairs {
            assert_eq!(encoded.bytes(), staged.encode(), "{:?}", staged.kind);
            assert_eq!(encoded.wire_len(), staged.wire_len());
            assert_eq!(
                (encoded.kind(), encoded.job(), encoded.round()),
                (staged.kind, staged.job, staged.round)
            );
            let (read, consumed) =
                crate::frame::read_frame(&mut encoded.bytes(), crate::frame::DEFAULT_MAX_PAYLOAD)
                    .expect("the checksum verifies");
            assert_eq!((read, consumed), (staged, encoded.wire_len()));
            let mut sink = Vec::new();
            assert_eq!(encoded.write_to(&mut sink), Ok(encoded.wire_len()));
            assert_eq!(sink, encoded.bytes());
        }
    }

    #[test]
    fn fault_roundtrip() {
        for kind in [
            FaultKind::CorruptPayload,
            FaultKind::BadCrc,
            FaultKind::Truncate,
            FaultKind::WrongVersion,
            FaultKind::Disconnect,
        ] {
            let msg = Fault { kind };
            assert_eq!(Fault::decode(&msg.encode()).unwrap(), msg);
        }
        assert!(Fault::decode(&[99]).is_err());
    }

    #[test]
    fn error_msg_roundtrip() {
        let msg = ErrorMsg {
            message: "no block loaded for job 7".to_string(),
        };
        assert_eq!(ErrorMsg::decode(&msg.encode()).unwrap(), msg);
        assert!(ErrorMsg::decode(&[0xFF, 0xFE]).is_err());
    }
}
