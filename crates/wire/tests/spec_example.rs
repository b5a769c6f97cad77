//! Pins the worked example in `docs/WIRE_FORMAT.md` to the implementation:
//! if the encoding of the documented TASK frame ever changes, this test
//! fails and the spec must be revised in the same commit.

use avcc_wire::{
    read_frame, Block, FrameKind, Task, TypedBlock, WireError, DEFAULT_MAX_PAYLOAD,
    PROTOCOL_VERSION,
};

/// The paper's 25-bit field, `2^25 − 39`.
const Q: u64 = (1 << 25) - 39;

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn unhex(text: &str) -> Vec<u8> {
    text.split_whitespace()
        .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
        .collect()
}

/// The exact frame walked through byte-by-byte in docs/WIRE_FORMAT.md §7:
/// a TASK for job 7, round 2, no injected sleep, one function with inputs
/// [1, 2, q − 3] to a worker whose block is of the 25-bit field — every
/// element within 2^15 of 0 or of q, so 2 bytes each: 1, 2 and −3.
#[test]
fn wire_format_doc_example_is_accurate() {
    let task = Task {
        sleep_micros: 0,
        inputs: vec![vec![1, 2, Q - 3]],
    };
    let encoded = task.encoded_frame_in(7, 2, Q);
    let wire = encoded.bytes();

    let documented = "\
41 56 43 43 03 00 11 00 07 00 00 00 00 00 00 00 \
02 00 00 00 00 00 00 00 16 00 00 00 00 00 00 00 \
00 00 00 00 01 00 00 00 03 00 00 00 01 00 02 00 \
fd ff 8b cc d8 b9";
    assert_eq!(hex(wire), documented, "docs/WIRE_FORMAT.md §7 is stale");

    // And the documented bytes really decode back to the documented frame.
    let (frame, consumed) = read_frame(&mut &wire[..], DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(consumed, 54);
    assert_eq!(frame.kind, FrameKind::Task);
    assert_eq!(frame.job, 7);
    assert_eq!(frame.round, 2);
    assert_eq!(frame.payload, task.encode_in(Q));

    // A worker holding a 25-bit block computes on them exactly what it
    // computes on the residues themselves.
    let block = TypedBlock::from_block(&Block {
        modulus: Q,
        rows: 2,
        cols: 3,
        elements: vec![1, 2, 3, 4, 5, Q - 1],
    })
    .unwrap();
    assert_eq!(
        block.execute_payload(&frame.payload),
        Ok((0, block.execute(&task.inputs).unwrap()))
    );
    // Without the block's modulus the 6-byte array is shorter than 4 bytes
    // per element.
    assert_eq!(
        Task::decode(&frame.payload),
        Err(WireError::Truncated {
            context: "TASK inputs"
        })
    );

    // Sent to a receiver that may not know the modulus, the same task is 4
    // bytes per element (§7's closing paragraph).
    assert_eq!(task.frame(7, 2).wire_len(), 60);
    assert_eq!(Task::decode(&task.encode()).unwrap(), task);
}

/// A TASK as version 2 sent it (4 bytes per element, §8's history): an
/// intact frame of another version, refused on its version word before
/// anything else is read.
#[test]
fn a_version_2_frame_is_unsupported() {
    let version_2 = unhex(
        "41 56 43 43 02 00 11 00 07 00 00 00 00 00 00 00 \
         02 00 00 00 00 00 00 00 1c 00 00 00 00 00 00 00 \
         00 00 00 00 01 00 00 00 03 00 00 00 01 00 00 00 \
         02 00 00 00 03 00 00 00 d2 ab 21 a6",
    );
    assert_eq!(
        read_frame(&mut version_2.as_slice(), DEFAULT_MAX_PAYLOAD),
        Err(WireError::UnsupportedVersion {
            ours: PROTOCOL_VERSION,
            theirs: 2
        })
    );
    assert_eq!(PROTOCOL_VERSION, 3);
}
