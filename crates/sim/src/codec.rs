//! Explicit binary encoding for checkpoints and wire messages.
//!
//! Checkpoints and replayed messages must decode to *exactly* the state
//! that was encoded — recovery correctness depends on it — so we use a
//! small, fully explicit little-endian codec rather than a derive-based
//! serializer. Every field written is a deliberate decision, which makes
//! the determinism audit (what exactly is part of process state?) easy.
//!
//! # Shared bytes
//!
//! A transmitted frame is written once and read by every station that
//! hears it, so the bytes of a transmission live in one reference-counted
//! buffer, [`Bytes`], and everything decoded out of it — a message body,
//! a consensus payload, the encoded message the recorder logs — is a
//! *view* of that buffer rather than a private copy. [`Bytes::encoded`]
//! writes an encoding straight into such a buffer (one allocation per
//! transmission); a [`Decoder::over`] one hands out views where a decoder
//! over a plain slice copies.
//!
//! A view keeps its whole buffer alive. That is the point for the frames
//! of the event path (the view is a few dozen bytes short of its buffer),
//! and wrong for a small value cut out of a large, short-lived buffer
//! that is then kept: decode those over the plain slice (`&bytes[..]`),
//! which copies out. The quorum log does (see `publishing-quorum`).

use core::fmt;
use core::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

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

/// Immutable shared bytes: a reference-counted buffer and the range of
/// it this value views. Cloning and [`slice`](Bytes::slice) are
/// reference-count bumps; equality, hashing and `Debug` go by content
/// (and print what a `Vec<u8>` prints).
///
/// Offsets are 32-bit so the value is as wide as the `Vec<u8>` it stands
/// in for: a message, and every action that carries one, keeps its size.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<[u8]>,
    start: u32,
    end: u32,
}

impl Bytes {
    /// A buffer of `len` bytes, zeroed and then written by `fill` — the
    /// one allocation of the value's life.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX`.
    pub fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let end = u32::try_from(len).expect("shared buffers stay under 4 GiB");
        // An exact-length iterator collects into one allocation.
        let mut buf: Arc<[u8]> = core::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut buf).expect("not shared yet"));
        Bytes { buf, start: 0, end }
    }

    /// A buffer holding exactly what `fill` encodes, written in place.
    ///
    /// # Panics
    ///
    /// Panics if `fill` does not write exactly `len` bytes — callers
    /// size the buffer from [`Encode::encoded_len`], which must be exact.
    pub fn encoded(len: usize, fill: impl FnOnce(&mut Encoder<'_>)) -> Bytes {
        Bytes::filled(len, |buf| {
            let mut e = Encoder {
                sink: Sink::Fixed { buf, len: 0 },
            };
            fill(&mut e);
            assert_eq!(e.len(), len, "encoded_len must be exact");
        })
    }

    /// A view of `range` of these bytes, sharing their buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} of {}",
            self.len()
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    /// How many values (clones and views) share this buffer — what a
    /// test reads to show that a transmission was not copied.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Whether `other` views the same buffer (not merely equal bytes).
    pub fn shares_buffer_with(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// A copy into a fresh buffer (the vector's own allocation cannot be
/// adopted): producers on the event path build with [`Bytes::filled`] or
/// [`Bytes::encoded`] instead.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from(&v[..])
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(v))
    }
}

/// All of `buf`, shared as it is.
impl From<Arc<[u8]>> for Bytes {
    fn from(buf: Arc<[u8]>) -> Bytes {
        let end = u32::try_from(buf.len()).expect("shared buffers stay under 4 GiB");
        Bytes { buf, start: 0, end }
    }
}

/// The buffer itself when these bytes are all of it — a frame, which is
/// never a part of anything, holds its payload this way, two words
/// narrower — and a copy of the viewed part otherwise.
impl From<Bytes> for Arc<[u8]> {
    fn from(bytes: Bytes) -> Arc<[u8]> {
        if bytes.len() == bytes.buf.len() {
            bytes.buf
        } else {
            Arc::from(&*bytes)
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl core::hash::Hash for Bytes {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

/// Where an [`Encoder`] writes.
#[derive(Debug)]
enum Sink<'a> {
    /// A vector that grows under the writes.
    Grow(Vec<u8>),
    /// A buffer of the encoding's exact size ([`Bytes::encoded`]);
    /// `len` bytes of it are written.
    Fixed { buf: &'a mut [u8], len: usize },
}

/// An append-only byte sink for encoding: a growing vector
/// ([`Encoder::new`], [`Encoder::finish`]) or, inside
/// [`Bytes::encoded`], the shared buffer being built.
#[derive(Debug)]
pub struct Encoder<'a> {
    sink: Sink<'a>,
}

impl Default for Encoder<'static> {
    fn default() -> Self {
        Encoder::new()
    }
}

impl Encoder<'static> {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::with_capacity(0)
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            sink: Sink::Grow(Vec::with_capacity(cap)),
        }
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        match self.sink {
            Sink::Grow(buf) => buf,
            Sink::Fixed { .. } => unreachable!("a fixed encoder is only ever lent"),
        }
    }
}

impl Encoder<'_> {
    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Grow(buf) => buf.len(),
            Sink::Fixed { len, .. } => *len,
        }
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends raw bytes. A fixed sink panics when they do not fit: its
    /// size came from an `encoded_len` that was not exact.
    #[inline]
    fn put(&mut self, v: &[u8]) {
        match &mut self.sink {
            Sink::Grow(buf) => buf.extend_from_slice(v),
            Sink::Fixed { buf, len } => {
                buf[*len..*len + v.len()].copy_from_slice(v);
                *len += v.len();
            }
        }
    }

    /// Writes a single byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v]);
        self
    }

    /// Writes a bool as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Writes a little-endian u16.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian i64.
    #[inline]
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Writes an f64 by its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.put(v);
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
    /// The shared buffer `buf` is part of, when it is, and where in it
    /// `buf` starts: byte strings are then handed out as views of it
    /// ([`Decoder::shared_bytes`]). Borrowed, so a decode that takes no
    /// view never touches the reference count.
    shared: Option<(&'a Arc<[u8]>, usize)>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            shared: None,
        }
    }

    /// Creates a decoder over shared bytes; what it decodes may view
    /// (and so keep alive) `bytes`' buffer.
    pub fn over(bytes: &'a Bytes) -> Self {
        Decoder {
            buf: bytes,
            pos: 0,
            shared: Some((&bytes.buf, bytes.start as usize)),
        }
    }

    /// [`Decoder::over`] all of a buffer that is held as such (a frame's
    /// payload), without first making [`Bytes`] of it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is longer than `u32::MAX` — no [`Bytes`]
    /// could view it.
    pub fn over_buffer(buf: &'a Arc<[u8]>) -> Self {
        assert!(
            u32::try_from(buf.len()).is_ok(),
            "shared buffers stay under 4 GiB"
        );
        Decoder {
            buf,
            pos: 0,
            shared: Some((buf, 0)),
        }
    }

    /// Returns the number of bytes not yet consumed.
    #[inline]
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

    #[inline]
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
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any nonzero byte is `true`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("len checked"),
        ))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("len checked"),
        ))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    /// Reads a little-endian i64.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    /// Reads an f64 from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    #[inline]
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

    /// Reads a length-prefixed byte string as a borrowed slice of the
    /// input: nothing copied, no reference count touched — for a reader
    /// that only checks the bytes are there.
    pub fn borrowed_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.len_prefix()?;
        self.take(len)
    }

    /// Reads a length-prefixed byte string as shared bytes: a view of the
    /// input when the decoder is [`over`](Decoder::over) shared bytes, a
    /// copy otherwise.
    pub fn shared_bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.len_prefix()?;
        let start = self.pos;
        let taken = self.take(len)?;
        Ok(match self.shared {
            // Inside the buffer (`take` checked), whose length fits.
            Some((buf, base)) => Bytes {
                buf: Arc::clone(buf),
                start: (base + start) as u32,
                end: (base + start + len) as u32,
            },
            None => Bytes::from(taken),
        })
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
    /// rest. It sizes the buffers of [`encode_to_vec`](Self::encode_to_vec)
    /// and [`encode_to_bytes`](Self::encode_to_bytes), so an
    /// implementation must be exact — the latter panics otherwise.
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

    /// Encodes into fresh shared bytes: written in place, one
    /// allocation, when [`encoded_len`](Self::encoded_len) is
    /// implemented; through a vector (and a copy) otherwise.
    fn encode_to_bytes(&self) -> Bytes {
        match self.encoded_len() {
            0 => self.encode_to_vec().into(),
            len => Bytes::encoded(len, |e| self.encode(e)),
        }
    }
}

/// A type decodable from its canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes one value, advancing the cursor.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must occupy everything `d` has left.
    fn decode_rest(mut d: Decoder<'_>) -> Result<Self, CodecError> {
        let v = Self::decode(&mut d)?;
        d.finish()?;
        Ok(v)
    }

    /// Decodes a value that must occupy the entire input.
    fn decode_all(buf: &[u8]) -> Result<Self, CodecError> {
        Self::decode_rest(Decoder::new(buf))
    }

    /// [`decode_all`](Self::decode_all) over shared bytes: the same
    /// value, whose byte strings view `buf` instead of copying it.
    fn decode_shared(buf: &Bytes) -> Result<Self, CodecError> {
        Self::decode_rest(Decoder::over(buf))
    }
}

impl Encode for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.u64(*self);
    }

    fn encoded_len(&self) -> usize {
        8
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
    fn shared_bytes_view_one_buffer_and_compare_by_content() {
        let whole = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let view = whole.slice(1..4);
        assert_eq!(&*view, &[2, 3, 4]);
        assert_eq!(view.slice(1..), Bytes::from(vec![3u8, 4]));
        assert!(view.shares_buffer_with(&whole));
        assert!(!view.shares_buffer_with(&Bytes::from(vec![2u8, 3, 4])));
        assert_eq!(whole.ref_count(), 2);
        // Content decides equality, hashing and `Debug`, as for a vector.
        assert_eq!(view, vec![2u8, 3, 4]);
        assert_eq!(format!("{view:?}"), format!("{:?}", vec![2u8, 3, 4]));
        assert_eq!(format!("{:?}", whole.slice(5..)), "[]");
        let hash = |v: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            use core::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            v(&mut h);
            h.finish()
        };
        use core::hash::Hash;
        assert_eq!(hash(&|h| view.hash(h)), hash(&|h| [2u8, 3, 4][..].hash(h)));
    }

    #[test]
    #[should_panic(expected = "slice 2..6 of 5")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![0u8; 5]).slice(2..6);
    }

    #[test]
    fn encoded_writes_in_place_what_the_vector_encoder_writes() {
        let fill = |e: &mut Encoder<'_>| {
            e.u8(7).bool(true).u16(0xBEEF).u32(9).u64(u64::MAX).i64(-42);
            e.f64(3.5).str("hello").bytes(&[1, 2, 3]);
        };
        let mut e = Encoder::new();
        fill(&mut e);
        let vec = e.finish();
        let shared = Bytes::encoded(vec.len(), fill);
        assert_eq!(shared, vec);
        assert_eq!(shared.ref_count(), 1);
        assert_eq!(7u64.encode_to_bytes(), 7u64.encode_to_vec());
        // No `encoded_len`: through a vector, same bytes.
        let s = "publishing".to_string();
        assert_eq!(s.encode_to_bytes(), s.encode_to_vec());
    }

    #[test]
    #[should_panic(expected = "encoded_len must be exact")]
    fn encoded_rejects_a_short_fill() {
        Bytes::encoded(9, |e| {
            e.u64(1);
        });
    }

    #[test]
    #[should_panic]
    fn encoded_rejects_an_overlong_fill() {
        Bytes::encoded(7, |e| {
            e.u64(1);
        });
    }

    #[test]
    fn shared_decoder_hands_out_views_and_a_plain_one_copies() {
        let mut e = Encoder::new();
        e.u32(5).bytes(b"body").bytes(b"");
        let buf = Bytes::from(e.finish());
        let mut shared = Decoder::over(&buf);
        let mut plain = Decoder::new(&buf);
        assert_eq!(shared.u32().unwrap(), plain.u32().unwrap());
        let (view, copy) = (
            shared.shared_bytes().unwrap(),
            plain.shared_bytes().unwrap(),
        );
        assert_eq!(view, copy);
        assert_eq!(view, b"body");
        assert!(view.shares_buffer_with(&buf) && !copy.shares_buffer_with(&buf));
        let (view, copy) = (
            shared.shared_bytes().unwrap(),
            plain.shared_bytes().unwrap(),
        );
        assert!(view.is_empty() && copy.is_empty());
        shared.finish().unwrap();
        plain.finish().unwrap();
        // Errors are the cursor's, whichever way the bytes come out.
        let cut = buf.slice(..buf.len() - 9);
        let mut shared = Decoder::over(&cut);
        let mut plain = Decoder::new(&cut);
        shared.u32().unwrap();
        plain.u32().unwrap();
        assert_eq!(shared.shared_bytes(), plain.shared_bytes());
        assert!(matches!(
            plain.shared_bytes(),
            Err(CodecError::UnexpectedEnd { .. })
        ));
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
