//! The one error type every wire-level operation returns.
//!
//! The variants are deliberately fine-grained because the socket runtime's
//! *eviction* machinery keys on them: a [`WireError::ChecksumMismatch`] from a
//! worker's result frame is evidence of corruption (counted like a Byzantine
//! worker), while [`WireError::Closed`] mid-round is a straggler-style
//! disconnect. `std::io::Error` is captured as its [`std::io::ErrorKind`]
//! plus a static context string so the error stays `Clone + PartialEq`
//! (testable) without holding the non-comparable `io::Error` itself.

use core::fmt;

/// Any failure while encoding, decoding, reading or writing wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// An OS-level I/O failure (connection reset, write timeout, ...).
    Io {
        /// The kind of the underlying `std::io::Error`.
        kind: std::io::ErrorKind,
        /// What the peer was doing when it failed.
        context: &'static str,
    },
    /// The peer closed the connection cleanly *between* frames (EOF at a
    /// frame boundary).
    Closed {
        /// What the reader was waiting for.
        context: &'static str,
    },
    /// The stream ended (or the buffer ran out) in the *middle* of a frame
    /// or message — a partial write reached us.
    Truncated {
        /// Which structure was being read.
        context: &'static str,
    },
    /// The first four bytes of a frame were not `b"AVCC"`.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The peer speaks a protocol version we do not.
    UnsupportedVersion {
        /// Our protocol version.
        ours: u16,
        /// The version in the received frame.
        theirs: u16,
    },
    /// The trailing CRC-32C did not match the header + payload bytes.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        computed: u32,
        /// Checksum carried by the frame trailer.
        found: u32,
    },
    /// The frame declared a payload longer than the receiver's limit.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The receiver's configured maximum.
        max: usize,
    },
    /// The frame-kind byte is not one this version defines.
    UnknownFrameKind {
        /// The kind byte found.
        code: u8,
    },
    /// A structurally valid frame arrived where the protocol state machine
    /// does not allow it (e.g. a `TASK` before the handshake finished).
    UnexpectedFrame {
        /// What the receiver was expecting.
        context: &'static str,
        /// The kind byte of the offending frame.
        code: u8,
    },
    /// A `LOAD_BLOCK` named a field modulus this build does not support.
    UnknownModulus {
        /// The modulus from the block header.
        modulus: u64,
    },
    /// A field element was `>= modulus`. Canonical residues are a protocol
    /// invariant; silently reducing would mask corruption.
    NonCanonical {
        /// Index of the offending element within its array.
        index: usize,
        /// The raw value found.
        value: u64,
        /// The modulus it should be below.
        modulus: u64,
    },
    /// A message payload violated its documented layout.
    Malformed {
        /// What was wrong.
        context: &'static str,
    },
}

impl WireError {
    /// Wraps a `std::io::Error`, keeping only its (comparable) kind.
    pub fn io(err: std::io::Error, context: &'static str) -> Self {
        Self::Io {
            kind: err.kind(),
            context,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { kind, context } => write!(f, "i/o error ({kind:?}) while {context}"),
            Self::Closed { context } => write!(f, "connection closed while {context}"),
            Self::Truncated { context } => write!(f, "truncated data while reading {context}"),
            Self::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            Self::UnsupportedVersion { ours, theirs } => {
                write!(f, "unsupported protocol version {theirs} (ours is {ours})")
            }
            Self::ChecksumMismatch { computed, found } => write!(
                f,
                "frame checksum mismatch (computed {computed:#010x}, frame says {found:#010x})"
            ),
            Self::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds limit of {max}")
            }
            Self::UnknownFrameKind { code } => write!(f, "unknown frame kind {code:#04x}"),
            Self::UnexpectedFrame { context, code } => {
                write!(f, "unexpected frame kind {code:#04x} while {context}")
            }
            Self::UnknownModulus { modulus } => write!(f, "unsupported field modulus {modulus}"),
            Self::NonCanonical {
                index,
                value,
                modulus,
            } => write!(
                f,
                "non-canonical field element {value} at index {index} (modulus {modulus})"
            ),
            Self::Malformed { context } => write!(f, "malformed message: {context}"),
        }
    }
}

impl std::error::Error for WireError {}
