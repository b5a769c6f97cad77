//! CRC-32C (Castagnoli) — the checksum trailing every wire frame.
//!
//! The Castagnoli polynomial is the iSCSI/ext4 choice: measurably better
//! error-detection properties than CRC-32 (IEEE) for short frames, and the
//! same table-driven software implementation cost. Two implementations live
//! here:
//!
//! * [`crc32c_bytewise`] — the classic one-table-lookup-per-byte loop. It is
//!   the *reference*: trivially auditable against published test vectors, and
//!   what the tests compare the production path against.
//! * [`crc32c`] / [`Crc32c`] — slice-by-8 (eight tables, one step per 8 input
//!   bytes), run as four independent chains side by side wherever the input
//!   has 2 KiB left. This is the implementation the frame codec uses.
//!
//! # Why four chains
//!
//! One slice-by-8 chain folds 8 bytes per step, but each step's eight table
//! loads are addressed by the previous step's result, so the loop runs at the
//! latency of load → xor → load — about one byte per cycle — with most of the
//! core's load ports idle. A CRC is linear over GF(2), so a long input can be
//! cut into pieces whose chains do not depend on each other: for
//! `data = A ‖ B`, `state(s, A ‖ B) = shift_{|B|}(state(s, A)) ^ state(0, B)`,
//! where `shift_n` advances a state over `n` zero bytes. [`Crc32c::update`]
//! therefore walks the input in blocks of `LANES × STREAM` bytes, runs
//! `LANES` chains over the block's `STREAM`-byte pieces in one loop (lane 0
//! continues the running state, the others start from 0), and joins them with
//! the *constant* operator `shift_STREAM` — four more byte-sliced tables — as
//! `shift(shift(shift(a) ^ b) ^ c) ^ d`. This is the structure of Mark
//! Adler's `crc32c.c`, with table steps where its `crc32q` instructions go
//! (the hardware instruction needs `unsafe`, which every crate here forbids).
//! Whatever is shorter than a block takes the same 8-byte step on one chain,
//! and the last `< 8` bytes the bytewise step. The value is the same for
//! every input and for every way of splitting it across `update` calls.
//!
//! Everything is pure safe Rust with `const`-built tables (no runtime init,
//! no `lazy_static`).

/// Reflected form of the Castagnoli polynomial `0x1EDC6F41`.
const POLY: u32 = 0x82F6_3B78;

/// Independent slice-by-8 chains [`Crc32c::update`] runs side by side.
///
/// Measured on the capture host (2 vCPUs, Xeon @ 2.1 GHz), MB/s as the best
/// of 60 timings, all variants interleaved in one binary, on a 983 084-byte
/// buffer (one `matmul_batch` `LOAD_BLOCK` frame): one chain 1 560–1 680,
/// two 3 010–3 260, three 4 260–4 580, four 4 690–5 370, six 5 080–5 270 —
/// four chains already issue a table load nearly every cycle the load ports
/// have.
pub(crate) const LANES: usize = 4;
/// Bytes each chain covers per block.
///
/// Same measurement, four chains: 4 420–5 200 MB/s at 256, 4 420–5 370 at
/// 512, 4 590–5 250 at 1 024, 4 670–5 410 at 2 048, 4 710–5 320 at 4 096,
/// 4 840–5 440 at 8 192 — flat within the host's run-to-run spread, the
/// three joins per block being 12 loads against the block's 8 × `STREAM / 2`.
/// On a 2 100-byte buffer (a `train_*` `TASK` frame) only 256 and 512 reach
/// the wide loop at all: 4 470–6 000 MB/s against 1 700–2 070 on one chain.
/// So the smallest size that gives nothing away on the bulk frames. A
/// constant, like `LANES`: no caller has a reason to pick another value.
pub(crate) const STREAM: usize = 512;
/// Bytes consumed per step of the wide loop; shorter inputs (and the tail of
/// longer ones) run on one chain.
const BLOCK: usize = LANES * STREAM;

/// Eight lookup tables: `TABLES[0]` is the classic bytewise table, and
/// `TABLES[t][b]` advances a CRC by one byte `b` followed by `t` zero bytes,
/// which is what lets slice-by-8 fold eight input bytes per iteration.
static TABLES: [[u32; 256]; 8] = build_tables();

/// The operator "advance a state over [`STREAM`] zero bytes", byte-sliced:
/// `shift(s) = SHIFT[0][s₀] ^ SHIFT[1][s₁] ^ SHIFT[2][s₂] ^ SHIFT[3][s₃]` for
/// the four bytes `s₀ … s₃` of `s`, least significant first.
static SHIFT: [[u32; 256]; 4] = build_shift_tables(&TABLES[0]);

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Advancing over zero bytes is linear in the state, so it is fixed by what
/// it does to the 32 one-bit states: each is walked through `STREAM` bytewise
/// steps on a zero byte, and entry `[k][b]` is the XOR of the images of the
/// bits set in `b << 8k`.
const fn build_shift_tables(bytewise: &[u32; 256]) -> [[u32; 256]; 4] {
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut state = 1u32 << bit;
        let mut step = 0;
        while step < STREAM {
            state = (state >> 8) ^ bytewise[(state & 0xFF) as usize];
            step += 1;
        }
        basis[bit] = state;
        bit += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut image = 0;
            let mut bit = 0;
            while bit < 8 {
                if b & (1 << bit) != 0 {
                    image ^= basis[8 * k + bit];
                }
                bit += 1;
            }
            tables[k][b] = image;
            b += 1;
        }
        k += 1;
    }
    tables
}

/// `state` advanced over [`STREAM`] zero bytes.
#[inline(always)]
fn shift(state: u32) -> u32 {
    SHIFT[0][(state & 0xFF) as usize]
        ^ SHIFT[1][((state >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((state >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(state >> 24) as usize]
}

/// The slice-by-8 step: folds the 8 bytes of `word` into `crc`. Written
/// once; the lanes of the wide loop and the single-chain tail both run it.
#[inline(always)]
fn step8(crc: u32, word: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
    let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// Streaming CRC-32C state, for checksumming a frame header and payload
/// without first concatenating them.
///
/// `update` may be called any number of times with pieces of any length: the
/// checksum depends only on the concatenation. Every 2 KiB of a piece is
/// folded as four independent 512-byte chains (see the module docs); what is
/// left, one 8-byte step at a time.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Fresh state (`0xFFFF_FFFF` pre-inversion, per the CRC-32C spec).
    pub fn new() -> Self {
        Self { state: !0u32 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            // Lane 0 carries the running state through the block's first
            // piece and the other lanes checksum theirs from 0, all in one
            // loop whose steps do not wait for each other; `shift` then moves
            // each partial result past the pieces that follow it.
            let mut lanes = [0u32; LANES];
            lanes[0] = crc;
            for at in (0..STREAM).step_by(8) {
                for (lane, piece) in lanes.iter_mut().zip(block.chunks_exact(STREAM)) {
                    *lane = step8(*lane, &piece[at..at + 8]);
                }
            }
            crc = lanes.iter().fold(0, |joined, &lane| shift(joined) ^ lane);
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            crc = step8(crc, word);
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
        self
    }

    /// Final (inverted) checksum value.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32C of `bytes` via [`Crc32c`] (the production path).
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(bytes);
    crc.finalize()
}

/// CRC-32C of `bytes` via the one-table-per-byte reference loop.
pub fn crc32c_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 3720 appendix / published CRC-32C check value.
    #[test]
    fn known_vector() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c_bytewise(b""), 0);
    }

    #[test]
    fn all_zero_32_bytes() {
        // iSCSI test vector: 32 bytes of 0x00.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn all_ones_32_bytes() {
        // iSCSI test vector: 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn sliced_matches_bytewise_on_varied_lengths() {
        // Deterministic pseudo-random bytes; every length 0..=257 exercises
        // all chunk remainders.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut bytes = Vec::new();
        for len in 0..=257usize {
            bytes.clear();
            for _ in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                bytes.push(state as u8);
            }
            assert_eq!(crc32c(&bytes), crc32c_bytewise(&bytes), "len={len}");
        }
    }

    #[test]
    fn streaming_split_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let mut crc = Crc32c::new();
            crc.update(&data[..split]).update(&data[split..]);
            assert_eq!(crc.finalize(), crc32c(&data), "split={split}");
        }
    }

    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    #[test]
    fn wide_path_matches_bytewise_where_the_lanes_meet() {
        // One byte short of a block (all single-chain), exactly one, just
        // over, over by a whole 8-byte step less one, several blocks with
        // ragged tails, and a frame-sized input. All-zero input leaves every
        // lane but the first at state 0; all-ones keeps every table index at
        // its extreme.
        let lengths = [
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            BLOCK + 7,
            2 * BLOCK,
            2 * BLOCK + 9,
            3 * BLOCK + STREAM + 5,
            (1 << 20) + 3,
        ];
        let longest = *lengths.iter().max().unwrap();
        for (name, bytes) in [
            ("xorshift", xorshift_bytes(longest)),
            ("zeros", vec![0x00; longest]),
            ("ones", vec![0xFF; longest]),
        ] {
            for len in lengths {
                assert_eq!(
                    crc32c(&bytes[..len]),
                    crc32c_bytewise(&bytes[..len]),
                    "{name}, len = {len}"
                );
            }
        }
    }

    #[test]
    fn update_split_at_every_lane_seam_matches_one_shot() {
        // Wherever the input is cut, the second `update` starts its own
        // blocks from the cut: the value must not depend on it. Cuts at each
        // lane seam and a byte either side, and at byte 28 — where
        // `read_frame` cuts header from payload.
        let data = xorshift_bytes(3 * BLOCK + STREAM + 5);
        let expected = crc32c_bytewise(&data);
        let seams = (STREAM..data.len()).step_by(STREAM);
        let splits = seams
            .flat_map(|seam| [seam - 1, seam, seam + 1])
            .chain([28]);
        for split in splits {
            let mut crc = Crc32c::new();
            crc.update(&data[..split]).update(&data[split..]);
            assert_eq!(crc.finalize(), expected, "split = {split}");
        }
    }

    #[test]
    fn shift_tables_advance_a_state_over_one_stream_of_zero_bytes() {
        let mut random = 0x2545_F491_4F6C_DD1Du64;
        let mut next_state = || {
            random ^= random << 13;
            random ^= random >> 7;
            random ^= random << 17;
            (random >> 16) as u32
        };
        for _ in 0..1000 {
            let (a, b) = (next_state(), next_state());
            assert_eq!(shift(a ^ b), shift(a) ^ shift(b), "a = {a:#x}, b = {b:#x}");
            let mut walked = a;
            for _ in 0..STREAM {
                walked = (walked >> 8) ^ TABLES[0][(walked & 0xFF) as usize];
            }
            assert_eq!(shift(a), walked, "state = {a:#x}");
        }
        assert_eq!(shift(0), 0);
    }
}
