//! Recursive Length Prefix (RLP) encoding and decoding.
//!
//! RLP is Ethereum's canonical serialization for trie nodes, accounts and
//! transactions. The Merkle Patricia Trie in `dmvcc-state` hashes the RLP
//! encoding of its nodes, so the encoding must be exact for state-root
//! comparisons to be meaningful.
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::rlp::{close_list, encode_bytes, encode_list, put_bytes, Rlp};
//!
//! // "dog" encodes as 0x83 'd' 'o' 'g'.
//! assert_eq!(encode_bytes(b"dog"), vec![0x83, b'd', b'o', b'g']);
//!
//! // ["cat", "dog"] encodes as a list.
//! let list = encode_list(&[encode_bytes(b"cat"), encode_bytes(b"dog")]);
//! assert_eq!(list[0], 0xc8);
//!
//! // The same list appended into one caller-owned buffer: items first,
//! // then the header in front of them.
//! let mut out = Vec::new();
//! put_bytes(&mut out, b"cat");
//! put_bytes(&mut out, b"dog");
//! close_list(&mut out, 0);
//! assert_eq!(out, list);
//!
//! let decoded = Rlp::decode(&list)?;
//! # Ok::<(), dmvcc_primitives::rlp::RlpError>(())
//! ```
//!
//! The `encode_*` functions return a fresh `Vec` per item and are thin
//! wrappers of the append-style `put_*` / `close_*` functions, which hot
//! paths (trie node hashing, transaction and receipt roots) call directly.

use core::fmt;

/// A decoded RLP item: either a byte string or a list of items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rlp {
    /// A byte string.
    Bytes(Vec<u8>),
    /// A list of nested items.
    List(Vec<Rlp>),
}

/// Error returned when decoding malformed RLP data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlpError {
    /// The input ended before the announced payload length.
    UnexpectedEof,
    /// A length prefix was not minimally encoded or otherwise invalid.
    InvalidLength,
    /// Extra bytes remained after the top-level item.
    TrailingBytes,
}

impl fmt::Display for RlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlpError::UnexpectedEof => f.write_str("unexpected end of RLP input"),
            RlpError::InvalidLength => f.write_str("invalid RLP length prefix"),
            RlpError::TrailingBytes => f.write_str("trailing bytes after RLP item"),
        }
    }
}

impl std::error::Error for RlpError {}

/// The length prefix of a `len`-byte payload and how many of its bytes are
/// used: `base + len` up to 55 bytes, else `base + 55 + n` followed by the
/// `n` big-endian length bytes (`base` is `0x80` for strings, `0xc0` for
/// lists).
fn length_prefix(len: usize, base: u8) -> ([u8; 9], usize) {
    let mut prefix = [0u8; 9];
    if len <= 55 {
        prefix[0] = base + len as u8;
        return (prefix, 1);
    }
    let len_bytes = len.to_be_bytes();
    let significant = &len_bytes[len.leading_zeros() as usize / 8..];
    prefix[0] = base + 55 + significant.len() as u8;
    prefix[1..=significant.len()].copy_from_slice(significant);
    (prefix, 1 + significant.len())
}

/// Turns `out[start..]` into an item by prepending the length prefix of
/// that payload.
fn close(out: &mut Vec<u8>, start: usize, base: u8) {
    let len = out.len() - start;
    let (prefix, n) = length_prefix(len, base);
    out.extend_from_slice(&prefix[..n]);
    out.copy_within(start..start + len, start + n);
    out[start..start + n].copy_from_slice(&prefix[..n]);
}

/// Appends the encoding of a byte string to `out`.
pub fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    if let [byte @ 0x00..=0x7f] = data {
        out.push(*byte);
        return;
    }
    let (prefix, n) = length_prefix(data.len(), 0x80);
    out.extend_from_slice(&prefix[..n]);
    out.extend_from_slice(data);
}

/// Appends the encoding of an unsigned integer to `out`: the minimal
/// big-endian byte form (zero encodes as the empty string, per the
/// Ethereum convention).
pub fn put_uint(out: &mut Vec<u8>, value: u64) {
    put_uint_be(out, &value.to_be_bytes());
}

/// [`put_uint`] for an integer of any width given as big-endian bytes
/// (a `U256`'s 32): leading zero bytes are dropped.
pub fn put_uint_be(out: &mut Vec<u8>, be_bytes: &[u8]) {
    let significant = be_bytes.iter().position(|&b| b != 0);
    put_bytes(out, &be_bytes[significant.unwrap_or(be_bytes.len())..]);
}

/// Closes a list whose already-encoded items are `out[start..]`: the list
/// header is inserted at `start`, so a caller encodes a list by noting
/// `out.len()`, appending the items and closing — no buffer per item.
pub fn close_list(out: &mut Vec<u8>, start: usize) {
    close(out, start, 0xc0);
}

/// Closes a byte string whose raw bytes are `out[start..]`, for strings
/// produced in place (the trie's hex-prefix paths).
pub fn close_bytes(out: &mut Vec<u8>, start: usize) {
    if let [0x00..=0x7f] = &out[start..] {
        return;
    }
    close(out, start, 0x80);
}

/// Encodes a byte string.
pub fn encode_bytes(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 9);
    put_bytes(&mut out, data);
    out
}

/// Encodes a list from already-encoded item payloads.
pub fn encode_list(items: &[Vec<u8>]) -> Vec<u8> {
    let payload_len: usize = items.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(payload_len + 9);
    for item in items {
        out.extend_from_slice(item);
    }
    close_list(&mut out, 0);
    out
}

/// Encodes an unsigned integer using the minimal big-endian byte form
/// (zero encodes as the empty string, per the Ethereum convention).
pub fn encode_uint(value: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    put_uint(&mut out, value);
    out
}

impl Rlp {
    /// Decodes a single top-level RLP item.
    ///
    /// # Errors
    ///
    /// Returns [`RlpError`] if the input is truncated, has an invalid length
    /// prefix, or contains trailing bytes.
    pub fn decode(data: &[u8]) -> Result<Rlp, RlpError> {
        let (item, consumed) = Self::decode_prefix(data)?;
        if consumed != data.len() {
            return Err(RlpError::TrailingBytes);
        }
        Ok(item)
    }

    fn decode_prefix(data: &[u8]) -> Result<(Rlp, usize), RlpError> {
        let first = *data.first().ok_or(RlpError::UnexpectedEof)?;
        match first {
            0x00..=0x7f => Ok((Rlp::Bytes(vec![first]), 1)),
            0x80..=0xb7 => {
                let len = (first - 0x80) as usize;
                let payload = data.get(1..1 + len).ok_or(RlpError::UnexpectedEof)?;
                if len == 1 && payload[0] < 0x80 {
                    return Err(RlpError::InvalidLength); // non-minimal
                }
                Ok((Rlp::Bytes(payload.to_vec()), 1 + len))
            }
            0xb8..=0xbf => {
                let (payload, end) = Self::long_payload(data, (first - 0xb7) as usize)?;
                Ok((Rlp::Bytes(payload.to_vec()), end))
            }
            0xc0..=0xf7 => {
                let len = (first - 0xc0) as usize;
                let payload = data.get(1..1 + len).ok_or(RlpError::UnexpectedEof)?;
                Ok((Rlp::List(Self::decode_items(payload)?), 1 + len))
            }
            0xf8..=0xff => {
                let (payload, end) = Self::long_payload(data, (first - 0xf7) as usize)?;
                Ok((Rlp::List(Self::decode_items(payload)?), end))
            }
        }
    }

    /// The payload of a long-form item whose length takes `len_len` bytes,
    /// and the offset just past it. The length is the input's to choose, so
    /// the end offset is computed checked.
    fn long_payload(data: &[u8], len_len: usize) -> Result<(&[u8], usize), RlpError> {
        let len = Self::read_length(data, len_len)?;
        let start = 1 + len_len;
        let end = start.checked_add(len).ok_or(RlpError::UnexpectedEof)?;
        let payload = data.get(start..end).ok_or(RlpError::UnexpectedEof)?;
        Ok((payload, end))
    }

    fn read_length(data: &[u8], len_len: usize) -> Result<usize, RlpError> {
        let bytes = data.get(1..1 + len_len).ok_or(RlpError::UnexpectedEof)?;
        if bytes.first() == Some(&0) {
            return Err(RlpError::InvalidLength); // non-minimal
        }
        let mut len = 0usize;
        for &b in bytes {
            len = len.checked_mul(256).ok_or(RlpError::InvalidLength)? + b as usize;
        }
        if len <= 55 {
            return Err(RlpError::InvalidLength); // should have used short form
        }
        Ok(len)
    }

    fn decode_items(mut payload: &[u8]) -> Result<Vec<Rlp>, RlpError> {
        let mut items = Vec::new();
        while !payload.is_empty() {
            let (item, consumed) = Self::decode_prefix(payload)?;
            items.push(item);
            payload = &payload[consumed..];
        }
        Ok(items)
    }

    /// Returns the byte string if this item is one.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Rlp::Bytes(b) => Some(b),
            Rlp::List(_) => None,
        }
    }

    /// Returns the item list if this item is a list.
    pub fn as_list(&self) -> Option<&[Rlp]> {
        match self {
            Rlp::Bytes(_) => None,
            Rlp::List(items) => Some(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_vectors() {
        // From the Ethereum wiki RLP test vectors.
        assert_eq!(encode_bytes(b"dog"), vec![0x83, b'd', b'o', b'g']);
        assert_eq!(encode_bytes(b""), vec![0x80]);
        assert_eq!(encode_bytes(&[0x0f]), vec![0x0f]);
        assert_eq!(encode_bytes(&[0x04, 0x00]), vec![0x82, 0x04, 0x00]);
        assert_eq!(encode_list(&[]), vec![0xc0]);
        let cat_dog = encode_list(&[encode_bytes(b"cat"), encode_bytes(b"dog")]);
        assert_eq!(
            cat_dog,
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
    }

    #[test]
    fn long_string() {
        let data = vec![0x61u8; 56];
        let encoded = encode_bytes(&data);
        assert_eq!(encoded[0], 0xb8);
        assert_eq!(encoded[1], 56);
        assert_eq!(&encoded[2..], &data[..]);
    }

    #[test]
    fn long_list() {
        let item = encode_bytes(&[0x61u8; 54]); // 55 bytes encoded
        let list = encode_list(&[item.clone(), item.clone()]);
        assert_eq!(list[0], 0xf8);
        assert_eq!(list[1], 110);
    }

    #[test]
    fn uint_encoding() {
        assert_eq!(encode_uint(0), vec![0x80]);
        assert_eq!(encode_uint(15), vec![0x0f]);
        assert_eq!(encode_uint(1024), vec![0x82, 0x04, 0x00]);
    }

    #[test]
    fn decode_round_trip_bytes() {
        for data in [&b""[..], b"a", b"dog", &[0x80u8, 1, 2], &[0u8; 100]] {
            let encoded = encode_bytes(data);
            let decoded = Rlp::decode(&encoded).expect("valid");
            assert_eq!(decoded, Rlp::Bytes(data.to_vec()));
        }
    }

    #[test]
    fn decode_round_trip_nested_list() {
        // [ [], [[]], [ [], [[]] ] ] — the "set theoretic" vector.
        let empty = encode_list(&[]);
        let one = encode_list(std::slice::from_ref(&empty));
        let two = encode_list(&[empty.clone(), one.clone()]);
        let top = encode_list(&[empty.clone(), one.clone(), two.clone()]);
        assert_eq!(top, vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
        let decoded = Rlp::decode(&top).expect("valid");
        let items = decoded.as_list().expect("list");
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(Rlp::decode(&[0x83, b'd']), Err(RlpError::UnexpectedEof));
        assert_eq!(Rlp::decode(&[]), Err(RlpError::UnexpectedEof));
        // A length the input chose must not overflow the end offset: eight
        // 0xff length bytes, and `usize::MAX - 8` (just short of wrapping).
        for first in [0xbf, 0xff] {
            let mut input = vec![first];
            input.extend_from_slice(&[0xff; 8]);
            assert_eq!(Rlp::decode(&input), Err(RlpError::UnexpectedEof));
            let mut input = vec![first];
            input.extend_from_slice(&(usize::MAX - 8).to_be_bytes());
            assert_eq!(Rlp::decode(&input), Err(RlpError::UnexpectedEof));
        }
    }

    #[test]
    fn put_matches_encode_on_boundary_lengths() {
        // Every put_* against its encode_* twin, appended after a prefix so
        // an offset mistake shows.
        let mut byte_strings: Vec<Vec<u8>> = vec![vec![], vec![0x00], vec![0x7f], vec![0x80]];
        for len in [2usize, 55, 56, 255, 256, 65_535, 65_536] {
            byte_strings.push(vec![0xa5; len]);
        }
        for data in &byte_strings {
            let mut out = vec![0xee];
            put_bytes(&mut out, data);
            assert_eq!(
                out[1..],
                encode_bytes(data)[..],
                "put_bytes len {}",
                data.len()
            );
            let mut out = vec![0xee];
            out.extend_from_slice(data);
            close_bytes(&mut out, 1);
            assert_eq!(
                out[1..],
                encode_bytes(data)[..],
                "close_bytes len {}",
                data.len()
            );
            assert_eq!(Rlp::decode(&out[1..]), Ok(Rlp::Bytes(data.clone())));
        }
        for value in [0u64, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x1_0000, u64::MAX] {
            let mut out = vec![0xee];
            put_uint(&mut out, value);
            assert_eq!(out[1..], encode_uint(value)[..], "put_uint {value}");
            // The wide form drops the same leading zeros.
            let mut wide = [0u8; 32];
            wide[24..].copy_from_slice(&value.to_be_bytes());
            let mut out = vec![0xee];
            put_uint_be(&mut out, &wide);
            assert_eq!(out[1..], encode_uint(value)[..], "put_uint_be {value}");
        }
        // Lists of single-byte items: the payload length is the item count,
        // and the header is pinned so the check does not rest on
        // `encode_list`, itself a wrapper of `close_list`.
        let headers: [(usize, &[u8]); 6] = [
            (0, &[0xc0]),
            (55, &[0xf7]),
            (56, &[0xf8, 56]),
            (255, &[0xf8, 255]),
            (256, &[0xf9, 1, 0]),
            (65_536, &[0xfa, 1, 0, 0]),
        ];
        for (count, header) in headers {
            let items = vec![vec![0x01u8]; count];
            let mut out = vec![0xee];
            for item in &items {
                out.extend_from_slice(item);
            }
            close_list(&mut out, 1);
            assert_eq!(out[1..], encode_list(&items)[..], "close_list {count}");
            assert_eq!(&out[1..1 + header.len()], header, "header {count}");
            assert_eq!(out.len(), 1 + header.len() + count);
            let decoded = Rlp::decode(&out[1..]).expect("valid");
            assert_eq!(decoded.as_list().map(<[Rlp]>::len), Some(count));
        }
    }

    #[test]
    fn decode_rejects_trailing() {
        assert_eq!(Rlp::decode(&[0x01, 0x02]), Err(RlpError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_non_minimal() {
        // Single byte < 0x80 must encode as itself, not with a prefix.
        assert_eq!(Rlp::decode(&[0x81, 0x01]), Err(RlpError::InvalidLength));
    }

    #[test]
    fn accessors() {
        assert_eq!(Rlp::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert_eq!(Rlp::Bytes(vec![1]).as_list(), None);
        assert_eq!(Rlp::List(vec![]).as_bytes(), None);
        assert!(Rlp::List(vec![]).as_list().is_some());
    }
}
