//! Explicit binary encoding for checkpoints and wire messages.
//!
//! Checkpoints and replayed messages must decode to *exactly* the state
//! that was encoded — recovery correctness depends on it — so we use a
//! small, fully explicit little-endian codec rather than a derive-based
//! serializer. Every field written is a deliberate decision, which makes
//! the determinism audit (what exactly is part of process state?) easy.

use core::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEnd {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A length prefix exceeded the configured sanity bound.
    LengthTooLarge {
        /// The decoded length.
        len: u64,
        /// The maximum allowed.
        max: u64,
    },
    /// An enum tag had no corresponding variant.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// Trailing bytes remained after a complete decode.
    TrailingBytes {
        /// Bytes left over.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::LengthTooLarge { len, max } => {
                write!(f, "length prefix {len} exceeds bound {max}")
            }
            CodecError::InvalidTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum accepted collection/byte-string length (16 MiB); a decoded
/// length above this is certainly corruption, not data.
pub const MAX_LEN: u64 = 16 * 1024 * 1024;

/// An append-only byte sink for encoding.
#[derive(Default, Debug, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes an f64 by its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Writes an `Option` as a presence byte plus the value.
    pub fn option<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) -> &mut Self {
        match v {
            None => {
                self.u8(0);
            }
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
        self
    }

    /// Writes a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.u64(items.len() as u64);
        for it in items {
            f(self, it);
        }
        self
    }
}

/// A cursor over encoded bytes for decoding.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Returns the number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any nonzero byte is `true`.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("len checked"),
        ))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("len checked"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    /// Reads an f64 from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let len = self.u64()?;
        if len > MAX_LEN {
            return Err(CodecError::LengthTooLarge { len, max: MAX_LEN });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.len_prefix()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads an `Option` written by [`Encoder::option`].
    pub fn option<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(CodecError::InvalidTag {
                what: "option",
                tag,
            }),
        }
    }

    /// Reads a length-prefixed sequence written by [`Encoder::seq`].
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.len_prefix()?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// A type with a canonical binary encoding.
pub trait Encode {
    /// Appends this value's encoding to `e`.
    fn encode(&self, e: &mut Encoder);

    /// Returns the number of bytes [`encode`](Self::encode) will append,
    /// for types that know it without encoding; 0 (the default) for the
    /// rest. It only sizes [`encode_to_vec`](Self::encode_to_vec)'s
    /// buffer, so an implementation must be exact: a low value costs a
    /// regrowth, a high one is retained by whoever stores the bytes.
    fn encoded_len(&self) -> usize {
        0
    }

    /// Encodes into a fresh byte vector, allocated once when
    /// [`encoded_len`](Self::encoded_len) is implemented.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut e);
        e.finish()
    }
}

/// A type decodable from its canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes one value, advancing the cursor.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must occupy the entire input.
    fn decode_all(buf: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(buf);
        let v = Self::decode(&mut d)?;
        d.finish()?;
        Ok(v)
    }
}

impl Encode for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.u64()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, e: &mut Encoder) {
        e.bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.bytes()
    }
}

impl Encode for String {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
}

impl Decode for String {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut e = Encoder::new();
        e.u8(7)
            .bool(true)
            .u16(0xBEEF)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .i64(-42)
            .f64(3.5)
            .str("hello")
            .bytes(&[1, 2, 3]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn option_roundtrip() {
        let mut e = Encoder::new();
        e.option(Some(&5u64), |e, v| {
            e.u64(*v);
        });
        e.option::<u64>(None, |e, v| {
            e.u64(*v);
        });
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.option(|d| d.u64()).unwrap(), Some(5));
        assert_eq!(d.option(|d| d.u64()).unwrap(), None);
    }

    #[test]
    fn seq_roundtrip() {
        let xs = vec![10u64, 20, 30];
        let mut e = Encoder::new();
        e.seq(&xs, |e, v| {
            e.u64(*v);
        });
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.seq(|d| d.u64()).unwrap(), xs);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut e = Encoder::new();
        e.u64(99);
        let buf = e.finish();
        let mut d = Decoder::new(&buf[..5]);
        assert!(matches!(d.u64(), Err(CodecError::UnexpectedEnd { .. })));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut e = Encoder::new();
        e.u64(MAX_LEN + 1);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert!(matches!(d.bytes(), Err(CodecError::LengthTooLarge { .. })));
    }

    #[test]
    fn invalid_option_tag_rejected() {
        let buf = [9u8];
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            d.option(|d| d.u8()),
            Err(CodecError::InvalidTag { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Encoder::new();
        e.bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.str(), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [0u8; 9];
        let mut d = Decoder::new(&buf);
        let _ = d.u64().unwrap();
        assert!(matches!(
            d.finish(),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn decode_all_roundtrip_via_traits() {
        let v: Vec<u8> = vec![4, 5, 6];
        let buf = v.encode_to_vec();
        assert_eq!(Vec::<u8>::decode_all(&buf).unwrap(), v);
        let s = "publishing".to_string();
        assert_eq!(String::decode_all(&s.encode_to_vec()).unwrap(), s);
        assert_eq!(u64::decode_all(&7u64.encode_to_vec()).unwrap(), 7);
    }

    #[test]
    fn nan_f64_roundtrips_bit_exactly() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut e = Encoder::new();
        e.f64(nan);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.f64().unwrap().to_bits(), nan.to_bits());
    }
}
