//! Little-endian primitive codec.
//!
//! Every multi-byte integer on the wire is little-endian. [`WireWriter`] and
//! [`WireReader`] are the only places bytes are produced or consumed;
//! everything above them (messages, frames) is layout, not byte twiddling.
//!
//! Field elements travel as raw residues in element arrays of one
//! `ElementWidth` per message: 4 bytes each when every element of the
//! message is below `2^32` — every canonical residue of the paper's 25-bit
//! field — and 8 otherwise. A `TASK` to a worker whose block is of a modulus
//! `q > 2^16` may also travel 2 bytes wide, each element as the `i16` its
//! residue is congruent to, when every element is within `2^15` of 0 or of
//! `q` — the paper's quantized weights and errors. No byte says which: the
//! receiver knows the element count from the message's own counts and reads
//! the width off the array's length (`WireReader::take_element_bytes`). The
//! canonical-residue check happens where the modulus is known
//! (`compute::typed_matrix` / `TypedBlock::execute_payload` on the worker,
//! `lift` on the master).

use crate::error::WireError;

/// Half the range of a 2-byte element: it holds the residues within `2^15`
/// of 0 or of the modulus.
const SHORT_HALF: u64 = 1 << 15;

/// Bytes per element of an element array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElementWidth {
    /// 2 bytes, `TASK` inputs only: a two's-complement `i16` `c` standing
    /// for the residue `c mod q`, `q` the modulus of the block the task runs
    /// on.
    Short {
        /// The block's modulus `q`.
        modulus: u64,
    },
    /// 4 bytes: every element of the message is below `2^32`.
    Narrow,
    /// 8 bytes: some element is not.
    Wide,
}

impl ElementWidth {
    /// The width a message whose element arrays are `arrays` travels at.
    pub fn of<'a>(arrays: impl IntoIterator<Item = &'a [u64]>) -> Self {
        // OR-folds of 64 elements vectorize; a wide array is usually found
        // in its first one.
        let wide = arrays.into_iter().any(|array| {
            array
                .chunks(64)
                .any(|chunk| chunk.iter().fold(0, |high, &v| high | v) >> 32 != 0)
        });
        if wide {
            Self::Wide
        } else {
            Self::Narrow
        }
    }

    /// The width a `TASK` whose inputs are `inputs` travels at to a worker
    /// whose block is of `modulus`: 2 bytes when `modulus > 2^16` and every
    /// element's centered value — `x` for `x ≤ (q−1)/2`, else `x − q` — lies
    /// in `[−2^15, 2^15)`, otherwise [`ElementWidth::of`].
    pub fn of_task_inputs(inputs: &[Vec<u64>], modulus: u64) -> Self {
        if modulus > 2 * SHORT_HALF && inputs.iter().all(|input| fits_short(input, modulus)) {
            Self::Short { modulus }
        } else {
            Self::of(inputs.iter().map(Vec::as_slice))
        }
    }

    /// Bytes per element.
    pub const fn bytes(self) -> usize {
        match self {
            Self::Short { .. } => 2,
            Self::Narrow => 4,
            Self::Wide => 8,
        }
    }

    /// The width of an array of `count` elements that occupies `len` bytes:
    /// exactly `4 · count` or `8 · count` — or, for the inputs of a `TASK`
    /// to a block of `task_modulus`, also `2 · count`. Fewer bytes than the
    /// narrowest width takes are [`WireError::Truncated`] (`context`), more
    /// than `8 · count` are trailing bytes ([`WireError::Malformed`],
    /// `trailing`), and any other length is malformed. For `count = 0` the
    /// array is empty.
    fn infer(
        count: usize,
        len: usize,
        context: &'static str,
        trailing: &'static str,
        task_modulus: Option<u64>,
    ) -> Result<Self, WireError> {
        // In u128, no product can overflow.
        let (count, len) = (count as u128, len as u128);
        let narrowest = if task_modulus.is_some() { 2 } else { 4 };
        if len == 4 * count {
            Ok(Self::Narrow)
        } else if len == 8 * count {
            Ok(Self::Wide)
        } else if let Some(modulus) = task_modulus.filter(|_| len == 2 * count) {
            Ok(Self::Short { modulus })
        } else if len < narrowest * count {
            Err(WireError::Truncated { context })
        } else if len > 8 * count {
            Err(WireError::Malformed { context: trailing })
        } else if task_modulus.is_some() {
            Err(WireError::Malformed {
                context: "element array is neither 2, 4 nor 8 bytes per element",
            })
        } else {
            Err(WireError::Malformed {
                context: "element array is neither 4 nor 8 bytes per element",
            })
        }
    }

    /// Decodes the little-endian elements of an array of this width.
    pub fn read(self, bytes: &[u8]) -> Vec<u64> {
        match self {
            Self::Short { modulus } => short_elements(bytes)
                .map(|c| lift_short(c, modulus))
                .collect(),
            Self::Narrow => le_elements::<4>(bytes).collect(),
            Self::Wide => le_elements::<8>(bytes).collect(),
        }
    }
}

/// Whether every element of `values` is below `2^15` or in
/// `[modulus − 2^15, modulus)`: the residues whose centered value a 2-byte
/// element holds. A non-canonical element never fits, so it is never folded
/// into a residue it is not.
fn fits_short(values: &[u64], modulus: u64) -> bool {
    let fits =
        |v: u64| (v < SHORT_HALF) | (v.wrapping_sub(modulus.wrapping_sub(SHORT_HALF)) < SHORT_HALF);
    // AND-folds of 64 elements vectorize.
    values
        .chunks(64)
        .all(|chunk| chunk.iter().fold(true, |all, &v| all & fits(v)))
}

/// The residue a 2-byte element `c` stands for under `modulus`: `c`, plus
/// `modulus` when `c < 0` — canonical for every `modulus > 2^15`.
pub(crate) fn lift_short(c: i16, modulus: u64) -> u64 {
    let c = i64::from(c);
    (c as u64).wrapping_add((c >> 63) as u64 & modulus)
}

/// The elements of a 2-byte element array; a partial last chunk is ignored.
pub(crate) fn short_elements(bytes: &[u8]) -> impl ExactSizeIterator<Item = i16> + Clone + '_ {
    bytes
        .chunks_exact(2)
        .map(|raw| i16::from_le_bytes([raw[0], raw[1]]))
}

/// The elements of a `W`-byte little-endian element array, `W` being 4 or
/// 8; a partial last chunk is ignored.
pub(crate) fn le_elements<const W: usize>(
    bytes: &[u8],
) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
    bytes.chunks_exact(W).map(|raw| {
        let mut element = [0u8; 8];
        element[..W].copy_from_slice(raw);
        u64::from_le_bytes(element)
    })
}

/// Append-only little-endian byte sink.
#[derive(Debug, Clone, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends raw bytes as they are.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `f64` as the little-endian bytes of its IEEE-754 bit
    /// pattern (exact round-trip, no text formatting).
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Appends a `u64` slice in one pre-reserved pass: an 8-byte element
    /// array.
    pub fn put_u64_bulk(&mut self, values: &[u64]) {
        self.put_staged::<8>(values, |v| v);
    }

    /// Appends an element array at `width`. Narrow keeps each value's low 4
    /// bytes, so every value must be below `2^32` ([`ElementWidth::of`]);
    /// Short writes each value's centered representative, so every value
    /// must fit one ([`ElementWidth::of_task_inputs`]).
    pub(crate) fn put_elements(&mut self, values: &[u64], width: ElementWidth) {
        debug_assert!(match width {
            ElementWidth::Short { modulus } => fits_short(values, modulus),
            ElementWidth::Narrow => ElementWidth::of([values]) == width,
            ElementWidth::Wide => true,
        });
        match width {
            // The low 16 bits of `v` below 2^15 and of `v − q` above it: the
            // two's complement of the centered value.
            ElementWidth::Short { modulus } => self.put_staged::<2>(values, |v| {
                v.wrapping_sub(if v < SHORT_HALF { 0 } else { modulus })
            }),
            ElementWidth::Narrow => self.put_staged::<4>(values, |v| v),
            ElementWidth::Wide => self.put_staged::<8>(values, |v| v),
        }
    }

    /// Appends the low `W` little-endian bytes of `encode` of each value,
    /// staged through a 128-byte stack buffer so the vector pays one capacity
    /// check per 128 bytes instead of one per element.
    fn put_staged<const W: usize>(&mut self, values: &[u64], encode: impl Fn(u64) -> u64) {
        self.buf.reserve(values.len() * W);
        let mut staged = [0u8; 128];
        let mut chunks = values.chunks_exact(128 / W);
        for chunk in &mut chunks {
            for (slot, &value) in staged.chunks_exact_mut(W).zip(chunk) {
                slot.copy_from_slice(&encode(value).to_le_bytes()[..W]);
            }
            self.buf.extend_from_slice(&staged);
        }
        for &value in chunks.remainder() {
            self.buf
                .extend_from_slice(&encode(value).to_le_bytes()[..W]);
        }
    }
}

/// Cursor over a received byte buffer.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    /// Everything not yet consumed, consuming it.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        rest
    }

    /// Consumes the rest of the payload as one array of `count` elements and
    /// returns its width and bytes. The width is implied by the length, which
    /// must be exactly `4 · count` or `8 · count` — or `2 · count`, for the
    /// inputs of a `TASK` to a block of modulus `task_modulus`: fewer bytes
    /// than the narrowest width takes are `Truncated` (`context`), more than
    /// `8 · count` are trailing bytes (`Malformed`, `trailing`), and anything
    /// in between is `Malformed`. All of this is settled on the length alone,
    /// before an element is read or anything is allocated.
    pub(crate) fn take_element_bytes(
        &mut self,
        count: usize,
        context: &'static str,
        trailing: &'static str,
        task_modulus: Option<u64>,
    ) -> Result<(ElementWidth, &'a [u8]), WireError> {
        let width = ElementWidth::infer(count, self.remaining(), context, trailing, task_modulus)?;
        Ok((width, self.take_rest()))
    }

    /// Fails unless every byte has been consumed — trailing garbage in a
    /// message payload is a protocol violation, not padding.
    pub fn expect_end(&self, context: &'static str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed { context });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1234.5678);
        let mut bytes = vec![0xAB];
        bytes.extend(w.into_bytes());
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 8);

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.take_u8("t").unwrap(), 0xAB);
        assert_eq!(r.take_u16("t").unwrap(), 0xBEEF);
        assert_eq!(r.take_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64("t").unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.take_f64("t").unwrap(), -1234.5678);
        r.expect_end("t").unwrap();
    }

    #[test]
    fn little_endian_layout() {
        let mut w = WireWriter::new();
        w.put_u32(0x0403_0201);
        assert_eq!(w.as_slice(), &[0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn truncated_read_is_an_error_not_a_panic() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert!(matches!(r.take_u64("t"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn bulk_u64_matches_element_path() {
        // 100 elements cross both writers' stages (16 and 32 elements).
        let values: Vec<u64> = (0..100).map(|i| i * 0x9E37_79B9).collect();
        let mut element = WireWriter::new();
        for &v in &values {
            element.put_u64(v);
        }
        let mut bulk = WireWriter::new();
        bulk.put_u64_bulk(&values);
        assert_eq!(element.as_slice(), bulk.as_slice());
        assert_eq!(ElementWidth::Wide.read(bulk.as_slice()), values);

        // 4 bytes wide: each element's low four bytes.
        let values: Vec<u64> = values.iter().map(|&v| v as u32 as u64).collect();
        let mut element = WireWriter::new();
        for &v in &values {
            element.put_u32(v as u32);
        }
        let mut bulk = WireWriter::new();
        bulk.put_elements(&values, ElementWidth::Narrow);
        assert_eq!(element.as_slice(), bulk.as_slice());
        assert_eq!(ElementWidth::Narrow.read(bulk.as_slice()), values);

        // 2 bytes wide: each element's centered value, as an `i16`; 200
        // elements cross the 64-element stage.
        let q = (1 << 25) - 39;
        let values: Vec<u64> = (0..200)
            .map(|i| if i % 3 == 0 { q - 1 - i } else { i * 163 })
            .collect();
        let short = ElementWidth::Short { modulus: q };
        let mut element = WireWriter::new();
        for &v in &values {
            let centered = if v < q / 2 {
                v as i64
            } else {
                v as i64 - q as i64
            };
            element.put_u16(centered as i16 as u16);
        }
        let mut bulk = WireWriter::new();
        bulk.put_elements(&values, short);
        assert_eq!(element.as_slice(), bulk.as_slice());
        assert_eq!(short.read(bulk.as_slice()), values);
    }

    #[test]
    fn a_task_goes_2_bytes_wide_exactly_when_every_centered_element_fits() {
        let q = (1 << 25) - 39;
        let width =
            |values: &[u64], modulus| ElementWidth::of_task_inputs(&[values.to_vec()], modulus);
        let short = ElementWidth::Short { modulus: q };
        // The edges of [−2^15, 2^15), from either side.
        assert_eq!(width(&[0, 32767, q - 32768, q - 1], q), short);
        for outside in [32768, q - 32769, q, q + 1, u64::MAX] {
            assert_eq!(
                width(&[1, outside], q),
                ElementWidth::of([&[1, outside][..]])
            );
        }
        // A modulus of 2^16 or less: its residues already fit 2 bytes, as
        // different numbers, so never.
        assert_eq!(width(&[0, 1], 1 << 16), ElementWidth::Narrow);
        assert_eq!(
            width(&[0, 1], (1 << 16) + 1),
            ElementWidth::Short {
                modulus: (1 << 16) + 1
            }
        );
        // Every input must fit; no inputs at all do.
        let inputs = [vec![1, 2], vec![3, 32768]];
        assert_eq!(
            ElementWidth::of_task_inputs(&inputs, q),
            ElementWidth::Narrow
        );
        assert_eq!(ElementWidth::of_task_inputs(&[], q), short);
    }

    #[test]
    fn two_byte_elements_stand_for_their_residue() {
        let q = (1 << 25) - 39;
        for (c, residue) in [
            (i16::MIN, q - 32768),
            (-1, q - 1),
            (0, 0),
            (i16::MAX, 32767),
        ] {
            assert_eq!(lift_short(c, q), residue);
            assert_eq!(
                lift_short(c, u64::MAX - 58),
                if c < 0 {
                    u64::MAX - 58 - c.unsigned_abs() as u64
                } else {
                    residue
                }
            );
        }
    }
}
