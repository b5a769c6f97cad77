//! Property tests for the wire layer: round-trips under random data, and the
//! central robustness claim — *no* byte input makes the decoder panic; it
//! either yields a valid frame or a typed [`WireError`].

use std::io::{BufReader, Read};

use avcc_wire::{
    crc32c, crc32c_bytewise, read_frame, Block, Frame, FrameKind, Hello, Task, TaskResult,
    TypedBlock, WireError, DEFAULT_MAX_PAYLOAD,
};
use proptest::prelude::*;

/// Every modulus a worker types a block under: the 25-bit field, `F_251` and
/// Goldilocks.
const MODULI: [u64; 3] = [(1 << 25) - 39, 251, 0xFFFF_FFFF_0000_0001];

/// The residue `c mod q`.
fn residue(c: i64, q: u64) -> u64 {
    (c as i128).rem_euclid(q as i128) as u64
}

/// The centered value of a canonical residue: `x` if `x ≤ (q−1)/2`, else
/// `x − q`.
fn centered(x: u64, q: u64) -> i128 {
    if x <= (q - 1) / 2 {
        x as i128
    } else {
        x as i128 - q as i128
    }
}

/// A `TASK` payload whose element array is `elements`.
fn task_payload(sleep: u64, functions: usize, len: usize, elements: &[u8]) -> Vec<u8> {
    let mut bytes = sleep.to_le_bytes().to_vec();
    bytes.extend_from_slice(&(functions as u32).to_le_bytes());
    bytes.extend_from_slice(&(len as u32).to_le_bytes());
    bytes.extend_from_slice(elements);
    bytes
}

/// A reader that hands out `bytes` in chunks of the given sizes, in turn: the
/// way a socket may split a stream anywhere, one byte at a time or all of it
/// at once.
struct Chunked {
    bytes: Vec<u8>,
    at: usize,
    sizes: Vec<usize>,
    turn: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        let n = size.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// One frame of each kind and width a connection carries: a `HELLO`, `TASK`s
/// 2, 4 and 8 bytes per element, a `TASK_RESULT`, and a `LOAD_BLOCK` larger
/// than a reader's 8 KiB buffer.
fn mixed_frames(seed: u64) -> Vec<Frame> {
    let q = MODULI[0];
    let values = |len: usize, shift: u32| -> Vec<u64> {
        (0..len as u64)
            .map(|i| seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift)
            .collect()
    };
    let small: Vec<u64> = values(300, 49)
        .iter()
        .map(|&v| residue(v as i64 - (1 << 14), q))
        .collect();
    let task = |inputs: Vec<Vec<u64>>| Task {
        sleep_micros: seed % 1000,
        inputs,
    };
    let task_frame = |encoded: avcc_wire::EncodedFrame| {
        read_frame(&mut encoded.bytes(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .0
    };
    let block = Block {
        modulus: q,
        rows: 40,
        cols: 64,
        elements: values(40 * 64, 40),
    };
    let result = TaskResult {
        worker: 7,
        compute_seconds: 0.25,
        outputs: vec![values(200, 40)],
    };
    vec![
        Hello::new(3).frame(),
        task_frame(task(vec![small]).encoded_frame_in(1, 2, q)),
        task_frame(task(vec![values(261, 40)]).encoded_frame(1, 3)),
        task_frame(task(vec![values(50, 0), values(50, 1)]).encoded_frame(2, 4)),
        result.frame(1, 2),
        block.frame(1),
        result.frame(1, 3),
    ]
}

/// Reads frames off `reader` until it fails: the frames, then the error.
fn read_all<R: Read>(reader: &mut R) -> (Vec<Frame>, WireError) {
    let mut frames = Vec::new();
    loop {
        match read_frame(reader, DEFAULT_MAX_PAYLOAD) {
            Ok((frame, _)) => frames.push(frame),
            Err(error) => return (frames, error),
        }
    }
}

proptest! {
    #[test]
    fn framing_holds_under_any_chunking_of_the_stream(
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u32>(), 1..12),
        scale in 0usize..4,
        place in 0usize..3,
        cut in any::<usize>(),
    ) {
        // Chunks of one byte, of up to 17 or 4 096, or of the whole stream.
        let limit = [1, 17, 4096, usize::MAX][scale];
        let sizes: Vec<usize> = raw.iter().map(|&r| 1 + r as usize % limit).collect();
        let frames = mixed_frames(seed);
        let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        // The three `TASK`s are 2, 4 and 8 bytes per element.
        let task_lens: Vec<usize> = encoded[1..4].iter().map(Vec::len).collect();
        prop_assert_eq!(task_lens, [48 + 300 * 2, 48 + 261 * 4, 48 + 100 * 8]);
        prop_assert!(encoded[5].len() > 8 << 10, "the LOAD_BLOCK outgrows the buffer");
        let stream = encoded.concat();
        let boundaries: Vec<usize> = encoded
            .iter()
            .scan(0, |end, bytes| {
                *end += bytes.len();
                Some(*end)
            })
            .collect();

        // The stream cut whole, at a frame boundary (or before the first
        // frame), or anywhere. Frames before the cut come back intact,
        // whether read raw or through the `BufReader` the worker and the
        // master wrap their sockets in; then EOF at a boundary is `Closed`,
        // inside a frame `Truncated`.
        let cut = match place {
            0 => stream.len(),
            1 => *[0].iter().chain(&boundaries).nth(cut % (boundaries.len() + 1)).unwrap(),
            _ => cut % (stream.len() + 1),
        };
        let whole = boundaries.iter().take_while(|&&end| end <= cut).count();
        let at_boundary = cut == 0 || boundaries.contains(&cut);
        let chunked = || Chunked {
            bytes: stream[..cut].to_vec(),
            at: 0,
            sizes: sizes.clone(),
            turn: 0,
        };
        for (read, error) in [read_all(&mut chunked()), read_all(&mut BufReader::new(chunked()))] {
            prop_assert_eq!(&read[..], &frames[..whole]);
            let closed = matches!(error, WireError::Closed { .. });
            let truncated = matches!(error, WireError::Truncated { .. });
            let expected = closed == at_boundary && truncated != at_boundary;
            prop_assert!(expected, "cut {}: {:?}", cut, error);
        }
    }

    #[test]
    fn crc_sliced_matches_bytewise(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(crc32c(&bytes), crc32c_bytewise(&bytes));
    }

    #[test]
    fn frame_roundtrip(job in any::<u64>(), round in any::<u64>(),
                       payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let frame = Frame::new(FrameKind::Task, job, round, payload);
        let bytes = frame.encode();
        let (back, consumed) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        prop_assert_eq!(back, frame);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn single_byte_corruption_never_decodes(seed in any::<u64>(),
                                            payload in proptest::collection::vec(any::<u8>(), 1..128)) {
        let frame = Frame::new(FrameKind::TaskResult, 1, 2, payload);
        let mut bytes = frame.encode();
        let pos = (seed as usize) % bytes.len();
        let flip = 1u8 << (seed % 8) as u8;
        bytes[pos] ^= flip.max(1);
        let decoded = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD);
        prop_assert!(decoded.is_err(), "corruption at byte {} undetected", pos);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Cap payload so a random length field cannot request a huge buffer.
        let _ = read_frame(&mut bytes.as_slice(), 1 << 16);
    }

    #[test]
    fn arbitrary_bytes_never_panic_message_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        for modulus in MODULI {
            let block = Block { modulus, rows: 2, cols: 3, elements: vec![1, 2, 3, 4, 5, 6] };
            let _ = TypedBlock::from_block(&block).unwrap().execute_payload(&bytes);
        }
        let _ = Block::decode(&bytes);
        let _ = Task::decode(&bytes);
        let _ = TaskResult::decode(&bytes);
        let _ = avcc_wire::Hello::decode(&bytes);
        let _ = avcc_wire::HelloAck::decode(&bytes);
        let _ = avcc_wire::Fault::decode(&bytes);
        let _ = avcc_wire::ErrorMsg::decode(&bytes);
    }

    #[test]
    fn task_roundtrip_rectangular(functions in 0usize..4, len in 0usize..32, sleep in any::<u64>()) {
        let inputs: Vec<Vec<u64>> = (0..functions)
            .map(|f| (0..len).map(|i| (f * 1000 + i) as u64).collect())
            .collect();
        let task = Task { sleep_micros: sleep, inputs };
        if functions > 0 && len == 0 {
            // Zero-length vectors are malformed: they would let `functions`
            // grow without costing payload bytes.
            prop_assert!(Task::decode(&task.encode()).is_err());
        } else {
            prop_assert_eq!(Task::decode(&task.encode()).unwrap(), task);
        }
    }

    #[test]
    fn every_message_roundtrips_4_bytes_wide_exactly_when_its_elements_fit_32_bits(
        functions in 1usize..4,
        len in 1usize..24,
        raw in proptest::collection::vec(any::<u64>(), 72),
        shift in 28u32..36,
        edge in any::<u64>(),
    ) {
        // Shifts around 32 make both widths common; half the time one element
        // sits on either side of the line, at 2^32 − 1 or 2^32.
        let mut values: Vec<u64> = raw[..functions * len].iter().map(|&v| v >> shift).collect();
        let at = (edge as usize) % (2 * values.len());
        if at < values.len() {
            values[at] = (1 << 32) - (edge >> 63);
        }
        let width = if values.iter().all(|&v| v < 1 << 32) { 4 } else { 8 };
        let vectors: Vec<Vec<u64>> = values.chunks(len).map(<[u64]>::to_vec).collect();

        let task = Task { sleep_micros: edge, inputs: vectors.clone() };
        prop_assert_eq!(task.encode().len(), 16 + values.len() * width);
        prop_assert_eq!(Task::decode(&task.encode()).unwrap(), task.clone());
        prop_assert_eq!(task.encoded_frame(1, 2).bytes(), &task.frame(1, 2).encode()[..]);

        let result = TaskResult { worker: 3, compute_seconds: 0.5, outputs: vectors };
        prop_assert_eq!(result.encode().len(), 20 + values.len() * width);
        prop_assert_eq!(TaskResult::decode(&result.encode()).unwrap(), result);

        let (rows, cols) = (functions as u32, len as u32);
        let block = Block { modulus: edge, rows, cols, elements: values.clone() };
        prop_assert_eq!(block.encode().len(), 16 + values.len() * width);
        prop_assert_eq!(Block::decode(&block.encode()).unwrap(), block.clone());
        prop_assert_eq!(block.encoded_frame(1).bytes(), &block.frame(1).encode()[..]);
    }

    #[test]
    fn a_task_goes_2_bytes_wide_exactly_when_its_modulus_is_above_2_16_and_every_centered_element_fits(
        functions in 1usize..4,
        len in 1usize..24,
        raw in proptest::collection::vec(any::<u64>(), 72),
        bits in 12u32..18,
        pick in 0usize..MODULI.len(),
        edge in any::<u64>(),
    ) {
        // Centered values of up to ±2^17, so both sides of ±2^15 are common;
        // half the time one element sits on the line: 32767 and q − 32768
        // fit, 32768 and q − 32769 do not.
        let q = MODULI[pick];
        let mut values: Vec<u64> = raw[..functions * len]
            .iter()
            .map(|&r| residue((r >> (63 - bits)) as i64 - (1 << bits), q))
            .collect();
        let at = (edge as usize) % (2 * values.len());
        if at < values.len() && q > 1 << 16 {
            values[at] = [32767, q - 32768, 32768, q - 32769][(edge >> 62) as usize];
        }
        let short = q > 1 << 16
            && values.iter().all(|&v| (-32768..32768).contains(&centered(v, q)));
        let width = if short { 2 } else if values.iter().all(|&v| v < 1 << 32) { 4 } else { 8 };
        let task = Task {
            sleep_micros: edge,
            inputs: values.chunks(len).map(<[u64]>::to_vec).collect(),
        };
        prop_assert_eq!(task.encode_in(q).len(), 16 + values.len() * width);
        if !short {
            prop_assert_eq!(task.encode_in(q), task.encode());
        }
        prop_assert_eq!(
            task.encoded_frame_in(1, 2, q).bytes(),
            &Frame::new(FrameKind::Task, 1, 2, task.encode_in(q)).encode()[..]
        );
    }

    #[test]
    fn a_block_computes_the_same_outputs_from_2_4_and_8_byte_inputs(
        rows in 1u32..6,
        functions in 1usize..4,
        len in 1u32..24,
        raw in proptest::collection::vec(any::<u64>(), 144),
        pick in 0usize..MODULI.len(),
        sleep in any::<u64>(),
    ) {
        let q = MODULI[pick];
        let block = Block {
            modulus: q,
            rows,
            cols: len,
            elements: raw[..(rows * len) as usize].iter().map(|&r| r % q).collect(),
        };
        let typed = TypedBlock::from_block(&block).unwrap();
        // Small signed inputs, as the paper's quantized weights and errors.
        let centered: Vec<i16> = raw[72..72 + functions * len as usize]
            .iter()
            .map(|&r| r as i16)
            .collect();
        let inputs: Vec<Vec<u64>> = centered
            .chunks(len as usize)
            .map(|input| input.iter().map(|&c| residue(c.into(), q)).collect())
            .collect();
        let expected = typed.execute(&inputs).unwrap();

        let values = inputs.concat();
        let mut encodings = vec![
            values.iter().flat_map(|&v| v.to_le_bytes()).collect::<Vec<u8>>(),
        ];
        if values.iter().all(|&v| v < 1 << 32) {
            encodings.push(values.iter().flat_map(|&v| (v as u32).to_le_bytes()).collect());
        }
        if q > 1 << 16 {
            encodings.push(centered.iter().flat_map(|&c| c.to_le_bytes()).collect());
        }
        for elements in encodings {
            let payload = task_payload(sleep, functions, len as usize, &elements);
            prop_assert_eq!(typed.execute_payload(&payload), Ok((sleep, expected.clone())));
        }
        // What the master sends is one of them.
        let task = Task { sleep_micros: sleep, inputs };
        prop_assert_eq!(typed.execute_payload(&task.encode_in(q)), Ok((sleep, expected)));
    }

    #[test]
    fn block_roundtrip_and_typed_compute(rows in 1u32..8, cols in 1u32..8, seed in any::<u64>()) {
        // Elements canonical under the exhaustive-test field q = 251.
        let elements: Vec<u64> = (0..rows as u64 * cols as u64)
            .map(|i| (seed.wrapping_mul(i + 1).wrapping_add(i)) % 251)
            .collect();
        let block = Block { modulus: 251, rows, cols, elements };
        let decoded = Block::decode(&block.encode()).unwrap();
        prop_assert_eq!(&decoded, &block);
        let typed = TypedBlock::from_block(&decoded).unwrap();
        let input: Vec<u64> = (0..cols as u64).map(|i| (seed.wrapping_add(i * 7)) % 251).collect();
        let outputs = typed.execute(std::slice::from_ref(&input)).unwrap();
        prop_assert_eq!(outputs.len(), 1);
        prop_assert_eq!(outputs[0].len(), rows as usize);
        prop_assert!(outputs[0].iter().all(|&v| v < 251));
    }
}
