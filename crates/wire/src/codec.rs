//! Little-endian primitive codec.
//!
//! Every multi-byte integer on the wire is little-endian. [`WireWriter`] and
//! [`WireReader`] are the only places bytes are produced or consumed;
//! everything above them (messages, frames) is layout, not byte twiddling.
//! Field elements travel as raw `u64`s; the canonical-residue check happens
//! where the modulus is known (`compute::typed_matrix` / `execute_typed` on
//! the worker, `lift` on the master).

use crate::error::WireError;

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

    /// Appends a `u64` slice in one pre-reserved pass — the bulk path used
    /// for element arrays.
    ///
    /// Values are staged through a stack buffer 16 at a time so the vector
    /// pays one capacity check per 128 bytes instead of one per element.
    pub fn put_u64_bulk(&mut self, values: &[u64]) {
        self.buf.reserve(values.len() * 8);
        let mut staged = [0u8; 128];
        let mut chunks = values.chunks_exact(16);
        for chunk in &mut chunks {
            for (slot, &value) in staged.chunks_exact_mut(8).zip(chunk) {
                slot.copy_from_slice(&value.to_le_bytes());
            }
            self.buf.extend_from_slice(&staged);
        }
        for &value in chunks.remainder() {
            self.buf.extend_from_slice(&value.to_le_bytes());
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

    /// Fails unless every byte has been consumed — trailing garbage in a
    /// message payload is a protocol violation, not padding.
    pub fn expect_end(&self, context: &'static str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed { context });
        }
        Ok(())
    }
}

/// Reads `count` raw `u64`s (the modulus-erased executor path; canonicity is
/// checked later, when the modulus is known).
pub fn take_u64_elements(
    reader: &mut WireReader<'_>,
    count: usize,
    context: &'static str,
) -> Result<Vec<u64>, WireError> {
    if reader.remaining() < count.saturating_mul(8) {
        return Err(WireError::Truncated { context });
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(reader.take_u64(context)?);
    }
    Ok(values)
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
        let values: Vec<u64> = (0..100).map(|i| i * 0x9E37_79B9).collect();
        let mut element = WireWriter::new();
        for &v in &values {
            element.put_u64(v);
        }
        let mut bulk = WireWriter::new();
        bulk.put_u64_bulk(&values);
        assert_eq!(element.as_slice(), bulk.as_slice());
    }
}
