//! Wire-format micro-benchmarks: the CRC-32C kernel, field-element bulk
//! encoding, and full frame encode/decode round trips.
//!
//! Two pairs compare a kernel with its baseline:
//!
//! * `wire_crc/n*/{bytewise,sliced}` — the shipped CRC (slice-by-8, four
//!   lanes wide from 2 KiB up) against the canonical byte-at-a-time
//!   implementation (it is the one every frame pays on both send and
//!   receive); the 1 MiB size is a bulk `LOAD_BLOCK`, where the wide loop
//!   is all there is;
//! * `wire_encode/n*/{element,bulk}` — `WireWriter::put_u64_bulk` against a
//!   per-element `put_u64` loop (task/result payloads are dominated by
//!   element serialization).
//!
//! `wire_roundtrip/*` is the absolute cost of a full
//! encode/validate/decode cycle for realistic TASK_RESULT frames, i.e. the
//! per-frame CPU tax the socket runtime adds over the threaded executor;
//! `wire_load_block/*` is the same for the bulk frame, each side as the
//! socket runtime runs it: the master encodes a block straight into its wire
//! bytes, the worker goes from the payload to a typed matrix in one pass.

use avcc_sim::wire::{
    crc32c, crc32c_bytewise, read_frame, Block, TaskResult, TypedBlock, WireWriter,
    DEFAULT_MAX_PAYLOAD,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const Q: u64 = 2_305_843_009_213_693_951; // P61: worst-case 8-byte residues

/// Deterministic canonical residues, no rng dependency in the hot path.
fn elements(count: usize, seed: u64) -> Vec<u64> {
    (0..count as u64)
        .map(|i| {
            seed.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i.wrapping_mul(1_442_695_040_888_963_407))
                % Q
        })
        .collect()
}

fn payload_bytes(len: usize) -> Vec<u8> {
    let mut writer = WireWriter::with_capacity(len * 8);
    writer.put_u64_bulk(&elements(len, 0xA5A5));
    writer.into_bytes()
}

/// CRC-32C: the shipped kernel vs the byte-wise reference its tests compare
/// it with.
fn bench_wire_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_crc");
    for len in [64usize, 4096, 65536, 1 << 20] {
        let bytes = payload_bytes(len / 8);
        assert_eq!(bytes.len(), len);
        // The two implementations must agree before we time either.
        assert_eq!(crc32c(&bytes), crc32c_bytewise(&bytes));

        group.bench_function(BenchmarkId::new(format!("n{len}"), "bytewise"), |b| {
            b.iter(|| crc32c_bytewise(black_box(&bytes)))
        });
        group.bench_function(BenchmarkId::new(format!("n{len}"), "sliced"), |b| {
            b.iter(|| crc32c(black_box(&bytes)))
        });
    }
    group.finish();
}

/// Element serialization: a per-element `put_u64` loop vs the bulk path the
/// message codecs actually use.
fn bench_wire_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    for len in [64usize, 4096, 65536] {
        let values = elements(len, 0x1234);

        let element_bytes = {
            let mut w = WireWriter::with_capacity(len * 8);
            for &v in &values {
                w.put_u64(v);
            }
            w.into_bytes()
        };
        let bulk_bytes = {
            let mut w = WireWriter::with_capacity(len * 8);
            w.put_u64_bulk(&values);
            w.into_bytes()
        };
        assert_eq!(
            element_bytes, bulk_bytes,
            "bulk path must be byte-identical"
        );

        group.bench_function(BenchmarkId::new(format!("n{len}"), "element"), |b| {
            b.iter(|| {
                let mut w = WireWriter::with_capacity(len * 8);
                for &v in black_box(&values) {
                    w.put_u64(v);
                }
                w.into_bytes()
            })
        });
        group.bench_function(BenchmarkId::new(format!("n{len}"), "bulk"), |b| {
            b.iter(|| {
                let mut w = WireWriter::with_capacity(len * 8);
                w.put_u64_bulk(black_box(&values));
                w.into_bytes()
            })
        });
    }
    group.finish();
}

/// Full frame cycle for a realistic TASK_RESULT: message encode + frame
/// encode (header + CRC) on one side, header/CRC validation + message decode
/// on the other.
fn bench_wire_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_roundtrip");
    for (functions, output_len) in [(1usize, 512usize), (4, 4096)] {
        let result = TaskResult {
            worker: 3,
            compute_seconds: 0.0125,
            outputs: (0..functions)
                .map(|f| elements(output_len, 0xBEEF ^ f as u64))
                .collect(),
        };
        let wire = result.frame(11, 2).encode();

        // The cycle must actually round-trip before we time it.
        let (frame, consumed) = read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(TaskResult::decode(&frame.payload).unwrap(), result);

        let id = format!("m{functions}_n{output_len}");
        group.bench_function(BenchmarkId::new(&id, "encode"), |b| {
            b.iter(|| black_box(&result).frame(11, 2).encode())
        });
        group.bench_function(BenchmarkId::new(&id, "decode"), |b| {
            b.iter(|| {
                let (frame, _) =
                    read_frame(&mut black_box(&wire).as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
                TaskResult::decode(&frame.payload).unwrap()
            })
        });
    }
    group.finish();
}

/// One `LOAD_BLOCK` of an e2e `matmul_batch` job (240 × 512 Goldilocks
/// elements, 983 KB) and one of a `train_*` job (200 × 261 elements of the
/// 25-bit field, 4 bytes each: 209 KB): `Block::encoded_frame` on the
/// master, `read_frame` + `TypedBlock::from_payload` on the worker.
fn bench_wire_load_block(c: &mut Criterion) {
    const GOLDILOCKS: u64 = 0xFFFF_FFFF_0000_0001;
    const P25: u64 = (1 << 25) - 39;
    let mut group = c.benchmark_group("wire_load_block");
    for (id, modulus, rows, cols) in [
        ("p64_240x512", GOLDILOCKS, 240u32, 512u32),
        ("p25_200x261", P25, 200, 261),
    ] {
        let block = Block {
            modulus,
            rows,
            cols,
            elements: elements((rows * cols) as usize, 0xB10C)
                .into_iter()
                .map(|v| v % modulus)
                .collect(),
        };
        let wire = block.encoded_frame(3);
        let (frame, _) = read_frame(&mut wire.bytes(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(
            TypedBlock::from_payload(&frame.payload),
            TypedBlock::from_block(&block)
        );
        group.bench_function(BenchmarkId::new(id, "encode"), |b| {
            b.iter(|| black_box(&block).encoded_frame(3))
        });
        group.bench_function(BenchmarkId::new(id, "decode"), |b| {
            b.iter(|| {
                let (frame, _) =
                    read_frame(&mut black_box(&wire).bytes(), DEFAULT_MAX_PAYLOAD).unwrap();
                TypedBlock::from_payload(&frame.payload).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wire_crc,
    bench_wire_encode,
    bench_wire_roundtrip,
    bench_wire_load_block
);
criterion_main!(benches);
