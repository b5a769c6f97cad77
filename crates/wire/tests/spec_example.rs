//! Pins the worked example in `docs/WIRE_FORMAT.md` to the implementation:
//! if the encoding of the documented TASK frame ever changes, this test
//! fails and the spec must be revised in the same commit.

use avcc_wire::{read_frame, FrameKind, Task, WireError, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION};

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
/// [1, 2, 3] — every element below 2^32, so 4 bytes each.
#[test]
fn wire_format_doc_example_is_accurate() {
    let task = Task {
        sleep_micros: 0,
        inputs: vec![vec![1, 2, 3]],
    };
    let wire = task.frame(7, 2).encode();

    let documented = "\
41 56 43 43 02 00 11 00 07 00 00 00 00 00 00 00 \
02 00 00 00 00 00 00 00 1c 00 00 00 00 00 00 00 \
00 00 00 00 01 00 00 00 03 00 00 00 01 00 00 00 \
02 00 00 00 03 00 00 00 d2 ab 21 a6";
    assert_eq!(hex(&wire), documented, "docs/WIRE_FORMAT.md §7 is stale");

    // And the documented bytes really decode back to the documented frame.
    let (frame, consumed) = read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(consumed, 60);
    assert_eq!(frame.kind, FrameKind::Task);
    assert_eq!(frame.job, 7);
    assert_eq!(frame.round, 2);
    assert_eq!(Task::decode(&frame.payload).unwrap(), task);
}

/// The same TASK as version 1 sent it (8 bytes per element, §8's history):
/// an intact frame of another version, refused on its version word before
/// anything else is read.
#[test]
fn a_version_1_frame_is_unsupported() {
    let version_1 = unhex(
        "41 56 43 43 01 00 11 00 07 00 00 00 00 00 00 00 \
         02 00 00 00 00 00 00 00 28 00 00 00 00 00 00 00 \
         00 00 00 00 01 00 00 00 03 00 00 00 01 00 00 00 \
         00 00 00 00 02 00 00 00 00 00 00 00 03 00 00 00 \
         00 00 00 00 0b a5 76 6f",
    );
    assert_eq!(
        read_frame(&mut version_1.as_slice(), DEFAULT_MAX_PAYLOAD),
        Err(WireError::UnsupportedVersion {
            ours: PROTOCOL_VERSION,
            theirs: 1
        })
    );
    assert_eq!(PROTOCOL_VERSION, 2);
}
