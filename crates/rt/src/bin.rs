//! Minimal binary codec: little-endian [`Encode`] into a `Vec<u8>`,
//! bounded [`Decode`] from a [`Cursor`], and the word-folding
//! [`checksum`] the checkpoint sections are sealed with. It is the
//! workspace's one binary codec: checkpoint sections, wire payloads
//! (`serve::net::wire`) and WAL windows (`store::wal`) are all written and
//! read through it.
//!
//! The counterpart of [`crate::json`] for state that is saved and loaded
//! far more often than it is read by a person: a host checkpoint is ≈ 27 MB
//! of `f64`s and `u32`s, and as text it is 62 MB, a `Json` tree three
//! times that, and a second of printing. One field list per struct feeds
//! both codecs — [`impl_json_struct!`](crate::impl_json_struct) and
//! [`impl_json_enum!`](crate::impl_json_enum) emit `ToJson`/`FromJson`
//! *and* `Encode`/`Decode` — so a field cannot exist in one format and not
//! in the other.
//!
//! # Encoding
//!
//! | type | bytes |
//! |------|-------|
//! | `u8`, `u16`, `u32`, `u64`, `i32`, `i64` | little-endian, fixed width |
//! | `usize` | as `u64` (decode rejects values the platform cannot hold) |
//! | `bool` | one byte, `0` or `1` (anything else is rejected) |
//! | `f64` | the IEEE-754 bits as `u64` — every value, NaN payloads and signed zeros included, round-trips bit for bit by construction |
//! | `String` | `u32` byte length, then UTF-8 |
//! | `Vec<T>`, `[T]` | `u32` count, then the elements |
//! | `(A, B)` | `A` then `B` |
//! | `Option<T>` | one byte `0`/`1`, then `T` if `1` |
//! | [`FlatMap`](crate::flat::FlatMap) | `u32` count, then `(u32, f64)` pairs in **strictly ascending key order** |
//! | struct | its listed fields, in list order |
//! | enum | one byte: the variant's position in the list, then that variant's fields |
//!
//! **Determinism.** Equal values encode to equal bytes: there is no
//! padding, no pointer or hash order anywhere, and a map is written as its
//! key-sorted run. Decode accepts only that form (a duplicate or
//! out-of-order key is an error), so `encode(decode(b)) == b` for every
//! `b` that decodes.
//!
//! **The decode bounds discipline**: every read is checked against the
//! bytes that remain before it happens, and a count is checked against
//! them — [`Cursor::count`], at [`Decode::MIN_BYTES`] per element (for a
//! struct, the sum of its fields') — before any allocation is sized from
//! it. No input makes a decoder panic or
//! allocate more than a constant factor of its own length, in debug or in
//! release.

use std::fmt;

/// Decode failure: the bytes are not an encoding of the requested type.
#[derive(Debug, Clone)]
pub struct BinError(pub String);

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary decode error: {}", self.0)
    }
}

impl std::error::Error for BinError {}

fn err<T>(msg: impl Into<String>) -> Result<T, BinError> {
    Err(BinError(msg.into()))
}

/// Append this value's encoding to `out`.
pub trait Encode {
    /// Append the encoding (see the module table).
    fn encode(&self, out: &mut Vec<u8>);
}

/// Decode a value from the front of a [`Cursor`].
pub trait Decode: Sized {
    /// A lower bound (≥ 1) on the encoded size of any value of this type —
    /// what a collection's count is checked against before allocating.
    const MIN_BYTES: usize;

    /// Decode one value, advancing the cursor past it.
    fn decode(c: &mut Cursor<'_>) -> Result<Self, BinError>;
}

/// Decode a `T` that must span `bytes` exactly.
pub fn decode_all<T: Decode>(bytes: &[u8]) -> Result<T, BinError> {
    let mut c = Cursor::new(bytes);
    let v = T::decode(&mut c)?;
    c.finish()?;
    Ok(v)
}

/// Bounded, panic-free read position over a byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, or an error if fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return err(format!(
                "needs {n} more bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], BinError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// A run of `n` raw `f64`s (no count in front): bounds-checked once as
    /// a whole, then converted word by word — the bulk reader for an
    /// embedding row or a whole embedding.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, BinError> {
        let Some(bytes) = n.checked_mul(8).filter(|&b| b <= self.remaining()) else {
            return err(format!(
                "a run of {n} f64s exceeds the {} bytes that remain",
                self.remaining()
            ));
        };
        Ok(self
            .take(bytes)?
            .chunks_exact(8)
            .map(|w| f64::from_bits(u64::from_le_bytes(w.try_into().expect("8-byte chunk"))))
            .collect())
    }

    /// A `u32` byte length, then that many raw bytes, borrowed in one
    /// [`take`](Self::take) — the decode of [`put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], BinError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A `u32` element count, rejected before anything is allocated if the
    /// remaining bytes cannot hold that many items of `min_item_bytes`.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, BinError> {
        let n = u32::decode(self)? as usize;
        if n.checked_mul(min_item_bytes)
            .is_none_or(|total| total > self.remaining())
        {
            return err(format!(
                "count {n} exceeds the {} bytes that remain",
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(self) -> Result<(), BinError> {
        match self.remaining() {
            0 => Ok(()),
            n => err(format!("{n} trailing bytes")),
        }
    }
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    u32::try_from(n)
        .expect("collections of 2^32 or more items are not encodable")
        .encode(out);
}

/// Append `bytes` as a `u32` length and the raw bytes — a `Vec<u8>`'s
/// encoding, written in one copy rather than one push per byte.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Append a run of `f64`s with no count in front, reserved in one step —
/// the writer of [`Cursor::f64s`].
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(8 * vs.len());
    for v in vs {
        v.encode(out);
    }
}

/// [`Decode::MIN_BYTES`] of the field an accessor reads, so
/// `impl_json_struct!` can sum its fields' bounds without naming their
/// types.
#[doc(hidden)]
pub const fn min_bytes_of<S, T: Decode>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

macro_rules! impl_bin_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn decode(c: &mut Cursor<'_>) -> Result<$t, BinError> {
                Ok(<$t>::from_le_bytes(c.array()?))
            }
        }
    )*};
}

impl_bin_int!(u8, u16, u32, u64, i32, i64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    const MIN_BYTES: usize = 8;
    fn decode(c: &mut Cursor<'_>) -> Result<usize, BinError> {
        let v = u64::decode(c)?;
        usize::try_from(v).map_err(|_| BinError(format!("{v} does not fit a usize")))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    const MIN_BYTES: usize = 1;
    fn decode(c: &mut Cursor<'_>) -> Result<bool, BinError> {
        match u8::decode(c)? {
            0 => Ok(false),
            1 => Ok(true),
            b => err(format!("bool byte {b}")),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    const MIN_BYTES: usize = 8;
    fn decode(c: &mut Cursor<'_>) -> Result<f64, BinError> {
        Ok(f64::from_bits(u64::decode(c)?))
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Decode for String {
    const MIN_BYTES: usize = 4;
    fn decode(c: &mut Cursor<'_>) -> Result<String, BinError> {
        std::str::from_utf8(c.bytes()?)
            .map(str::to_string)
            .map_err(|_| BinError("string is not UTF-8".into()))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn decode(c: &mut Cursor<'_>) -> Result<Vec<T>, BinError> {
        let n = c.count(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(c)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_BYTES: usize = 1;
    fn decode(c: &mut Cursor<'_>) -> Result<Option<T>, BinError> {
        match u8::decode(c)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(c)?)),
            b => err(format!("option byte {b}")),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn decode(c: &mut Cursor<'_>) -> Result<(A, B), BinError> {
        Ok((A::decode(c)?, B::decode(c)?))
    }
}

/// The seed of a fresh [`checksum`] (FNV-1a's 64-bit offset basis).
pub const CHECKSUM_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit checksum of `bytes`: FNV-1a's xor-then-multiply step folded over
/// little-endian 8-byte words (the tail zero-padded, the length mixed in
/// first) — one multiply per word instead of per byte, ≈ 4 ms over a 27 MB
/// checkpoint where byte-at-a-time FNV-1a takes ≈ 40.
///
/// Every step is a bijection of the running state for a fixed word, so two
/// inputs of equal length that differ in one word — any single flipped or
/// replaced byte — always get different sums. Not cryptographic: it guards
/// against damage, not against an adversary.
pub fn checksum(bytes: &[u8]) -> u64 {
    checksum_from(CHECKSUM_OFFSET, bytes)
}

/// FNV-1a 64-bit, one byte at a time and chainable: feed the previous
/// digest back in as `seed`, and start a fresh one from
/// [`CHECKSUM_OFFSET`]. What WAL frames and the router's content-checksum
/// chains are sealed with — bytes on disk and values callers compare, so
/// they keep it; everything newer uses the word-folding [`checksum`].
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// [`checksum`] continued from `seed` instead of [`CHECKSUM_OFFSET`], so
/// that one sum can run over several byte ranges:
/// `checksum_from(checksum(a), b)` is the wire frame's header-then-payload
/// seal. Each step is a bijection of the state, so a changed word in any
/// range changes the final sum.
pub fn checksum_from(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut h = step(seed, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of<T: Encode>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    #[test]
    fn primitives_and_containers_round_trip_and_have_the_documented_layout() {
        assert_eq!(bytes_of(&0x0102_0304u32), [4, 3, 2, 1]);
        assert_eq!(bytes_of(&7usize), [7, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes_of(&true), [1]);
        assert_eq!(bytes_of(&Some(9u8)), [1, 9]);
        assert_eq!(bytes_of(&None::<u8>), [0]);
        assert_eq!(bytes_of(&"hé".to_string()), [3, 0, 0, 0, b'h', 0xc3, 0xa9]);
        assert_eq!(
            bytes_of(&vec![(1u32, true), (2, false)]),
            [2, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0]
        );
        type Nested = Vec<(Option<Vec<u64>>, (String, i64))>;
        let v: Nested = vec![
            (Some(vec![u64::MAX, 0]), ("a".into(), -5)),
            (None, (String::new(), i64::MIN)),
        ];
        assert_eq!(decode_all::<Nested>(&bytes_of(&v)).unwrap(), v);
        assert_eq!(
            decode_all::<usize>(&bytes_of(&usize::MAX)).unwrap(),
            usize::MAX
        );
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        let quiet_nan_with_payload = f64::from_bits(0x7ff8_0000_dead_beef);
        for x in [
            0.1,
            -0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            quiet_nan_with_payload,
        ] {
            let back: f64 = decode_all(&bytes_of(&x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn a_count_is_checked_against_the_bytes_that_remain_before_anything_is_allocated() {
        // Four billion elements announced, none present: an error, not a
        // 32 GB reservation (which would abort the test).
        let huge = bytes_of(&u32::MAX);
        assert!(decode_all::<Vec<u64>>(&huge).is_err());
        assert!(decode_all::<Vec<Vec<(u32, f64)>>>(&huge).is_err());
        assert!(decode_all::<String>(&huge).is_err());
        // One more than fits is caught by the same check…
        let mut off_by_one = bytes_of(&3u32);
        off_by_one.extend([0u8; 2 * 8]);
        assert!(decode_all::<Vec<u64>>(&off_by_one).is_err());
        // …and exactly what fits decodes.
        off_by_one.extend([0u8; 8]);
        assert_eq!(decode_all::<Vec<u64>>(&off_by_one).unwrap(), [0, 0, 0]);
    }

    #[test]
    fn every_truncation_and_every_bad_tag_is_an_error_never_a_panic() {
        type T = Vec<(Option<Vec<f64>>, (bool, String))>;
        let v: T = vec![
            (Some(vec![1.0, 2.0]), (true, "xy".into())),
            (None, (false, String::new())),
        ];
        let bytes = bytes_of(&v);
        for cut in 0..bytes.len() {
            assert!(decode_all::<T>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_all::<T>(&longer).is_err(), "trailing byte accepted");
        assert!(decode_all::<bool>(&[2]).is_err());
        assert!(decode_all::<Option<u8>>(&[2, 0]).is_err());
        assert!(decode_all::<String>(&[1, 0, 0, 0, 0xff]).is_err());
    }

    #[test]
    fn checksum_is_checksum_from_the_offset_and_keeps_its_golden_value() {
        let mut rng = crate::rng::StdRng::seed_from_u64(0x5EED);
        use crate::rng::{Rng, SeedableRng};
        for len in [0usize, 1, 7, 8, 9, 18, 4156] {
            let b: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256usize) as u8).collect();
            assert_eq!(
                checksum(&b),
                checksum_from(CHECKSUM_OFFSET, &b),
                "len {len}"
            );
        }
        // Checkpoint sections on disk are sealed with this function: its
        // value for a fixed input must never move.
        assert_eq!(checksum(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(checksum(b"tree-svd checkpoint"), 0x7f07_8bc9_c5eb_0a1d);
    }

    #[test]
    fn fnv1a64_keeps_the_published_test_vectors() {
        // The empty input is the offset basis; "a" is FNV-1a 64's
        // published vector.
        assert_eq!(fnv1a64(CHECKSUM_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(CHECKSUM_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a64(fnv1a64(CHECKSUM_OFFSET, b"fo"), b"o"),
            fnv1a64(CHECKSUM_OFFSET, b"foo")
        );
    }

    #[test]
    fn bulk_runs_are_bounded_before_they_are_read() {
        let mut bytes = bytes_of(&(-0.0f64, f64::NAN));
        put_bytes(&mut bytes, b"raw");
        let mut c = Cursor::new(&bytes);
        let run = c.f64s(2).unwrap();
        assert_eq!(bytes_of(&(run[0], run[1])), bytes[..16]);
        assert_eq!(c.bytes().unwrap(), b"raw");
        c.finish().unwrap();
        // One word short, a length that overflows, a string one byte
        // short: refused before anything is read.
        let mut c = Cursor::new(&bytes[..16]);
        assert!(c.f64s(3).is_err() && c.f64s(usize::MAX).is_err());
        assert_eq!(c.remaining(), 16);
        assert!(Cursor::new(&bytes[16..22]).bytes().is_err());
    }

    #[test]
    fn checksum_sees_every_single_byte_change_and_the_length() {
        let mut rng = crate::rng::StdRng::seed_from_u64(0xC5);
        use crate::rng::{Rng, SeedableRng};
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let base: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256usize) as u8).collect();
            let sum = checksum(&base);
            assert_eq!(sum, checksum(&base), "not a function of the bytes");
            for i in 0..len {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut m = base.clone();
                    m[i] ^= flip;
                    assert_ne!(checksum(&m), sum, "len {len}: flip {flip:#x} at {i}");
                }
            }
            // Zero padding of the last word must not hide a length change.
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "len {len}: appended zero");
        }
    }
}
