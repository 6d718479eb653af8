//! Bounds-checked little-endian wire primitives for snapshot payloads.
//!
//! The [`Reader`] never panics and never allocates more than the bytes it
//! actually holds: every length prefix is validated against the remaining
//! payload *before* the corresponding vector is allocated, so a corrupted
//! length field fails with a typed error instead of an OOM or a panic.

/// Error from a [`Reader`] primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the requested bytes.
    Truncated,
    /// A value decoded but is not valid for its field (bad enum tag,
    /// out-of-range index, inconsistent length, trailing bytes).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`, little-endian two's complement.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern (round-trips NaN
    /// payloads and signed zeros bit-for-bit).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `i32`, little-endian two's complement.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("count exceeds usize"))
    }

    /// Reads a bool encoded as exactly 0 or 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte not 0 or 1")),
        }
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix for elements of `elem_size` bytes, rejecting
    /// any count whose encoded form cannot fit in the remaining payload —
    /// the allocation guard against corrupted length fields.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        let need = n
            .checked_mul(elem_size.max(1))
            .ok_or(WireError::Malformed("count overflows"))?;
        if need > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i32(i32::MIN);
        w.usize(99);
        w.bool(true);
        w.bool(false);
        w.f64(-0.0);
        w.bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), i32::MIN);
        assert_eq!(r.usize().unwrap(), 99);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.bytes(3).unwrap(), b"xyz");
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_are_truncated_not_panics() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.u16().unwrap(), 0x0201);
    }

    #[test]
    fn length_guard_rejects_absurd_counts() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // a count that could never fit
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.len(8).is_err());
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut r = Reader::new(&[0]);
        assert_eq!(r.finish(), Err(WireError::Malformed("trailing bytes")));
        r.u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn bad_bool_is_malformed() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(WireError::Malformed(_))));
    }
}
