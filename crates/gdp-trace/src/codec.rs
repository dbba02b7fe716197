//! Low-level binary primitives: LEB128 varints, zigzag signed integers,
//! exact f64 bit transport, CRC32 and the strict [`TraceError`] decoder
//! errors.
//!
//! No serde: the format mirrors the hand-rolled discipline of
//! `gdp-runner::json` — every byte written is explicit, every byte read
//! is bounds-checked, and every failure is a typed error naming where
//! the decode went wrong.

use std::fmt;

/// A decode failure (typed; `at` offsets are into the decoded buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the trace magic.
    BadMagic,
    /// The format version is not one this decoder understands.
    UnsupportedVersion(u32),
    /// The file's kind byte does not match the requested trace kind.
    WrongKind {
        /// Kind tag expected by the caller.
        want: u8,
        /// Kind tag found in the header.
        got: u8,
    },
    /// The buffer ended before a value could be read.
    Truncated {
        /// Offset at which more bytes were needed.
        at: usize,
    },
    /// A varint ran past 10 bytes (not a canonical u64).
    VarintOverflow {
        /// Offset of the varint's first byte.
        at: usize,
    },
    /// An enum/option tag byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
        /// Offset of the tag byte.
        at: usize,
    },
    /// A section's CRC32 check failed.
    Crc {
        /// Section name.
        section: &'static str,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A section's declared length was inconsistent with the buffer.
    BadSection {
        /// Section name.
        section: &'static str,
    },
    /// Bytes remained after the last section.
    TrailingBytes {
        /// Number of unconsumed bytes.
        len: usize,
    },
    /// A string section held invalid UTF-8.
    BadUtf8 {
        /// Offset of the string's first byte.
        at: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => f.write_str("not a gdp-trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceError::WrongKind { want, got } => {
                write!(f, "wrong trace kind: want {want}, got {got}")
            }
            TraceError::Truncated { at } => write!(f, "truncated trace at byte {at}"),
            TraceError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            TraceError::BadTag { what, tag, at } => {
                write!(f, "bad {what} tag {tag:#x} at byte {at}")
            }
            TraceError::Crc { section, stored, computed } => {
                write!(f, "CRC mismatch in section {section}: stored {stored:#010x}, computed {computed:#010x}")
            }
            TraceError::BadSection { section } => write!(f, "malformed section {section}"),
            TraceError::TrailingBytes { len } => {
                write!(f, "{len} trailing bytes after last section")
            }
            TraceError::BadUtf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
        }
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------- CRC32

/// Slicing-by-16 lookup tables for the reflected IEEE polynomial:
/// `CRC_TABLES[0]` is the classic bytewise table, and `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` is followed by `k` zero bytes, so one
/// step folds 16 input bytes with 16 independent lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Incremental CRC-32 (IEEE 802.3): feed discontiguous pieces and
/// finish once — bit-identical to [`crc32`] over their concatenation.
/// The stream framing layer needs this because a frame's checksum
/// covers the tag byte *and* the payload, which are separated by the
/// length varint in the buffered bytes.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the running checksum (slicing-by-16: 16 bytes
    /// per step, the bytewise table for the tail).
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

// --------------------------------------------------------------- writer

/// Longest LEB128 encoding of a u64: 9 × 7 bits, then 1 bit.
pub(crate) const MAX_VARINT_LEN: usize = 10;

/// Bytes [`Writer::varint`] emits for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Whether byte `b` at index `i` of a varint ends it in range: a final
/// byte, and at index 9 one holding at most the 64th bit.
#[inline]
fn varint_ends(i: usize, b: u8) -> bool {
    b < 0x80 && (i < MAX_VARINT_LEN - 1 || b <= 1)
}

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `capacity` bytes, so an encoder
    /// that knows its output size up front never regrows the buffer.
    pub(crate) fn with_capacity(capacity: usize) -> Writer {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Raw bytes, verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// LEB128 varint.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// A varint length prefix followed by whatever `body` writes, encoded
    /// in place: the body goes straight into this buffer behind a gap as
    /// wide as the prefix of `size_hint`, and only a wrong guess shifts
    /// it. Returns the body's byte range. The bytes equal
    /// `varint(body.len())` then `body`.
    pub(crate) fn len_prefixed(
        &mut self,
        size_hint: usize,
        body: impl FnOnce(&mut Writer),
    ) -> std::ops::Range<usize> {
        let guess = varint_len(size_hint as u64);
        self.buf.reserve(guess + size_hint);
        let gap = self.buf.len();
        self.buf.resize(gap + guess, 0);
        body(self);
        let len = self.buf.len() - gap - guess;
        let mut prefix = Writer::with_capacity(MAX_VARINT_LEN);
        prefix.varint(len as u64);
        let width = prefix.len();
        if width != guess {
            if width > guess {
                self.buf.resize(self.buf.len() + width - guess, 0);
            }
            self.buf.copy_within(gap + guess..gap + guess + len, gap + width);
            self.buf.truncate(gap + width + len);
        }
        self.buf[gap..gap + width].copy_from_slice(prefix.as_bytes());
        gap + width..gap + width + len
    }

    /// Zigzag-encoded signed varint.
    #[inline]
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Exact f64 bits, little-endian (bit-identical transport).
    pub fn f64_bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// u32, little-endian (headers and CRCs).
    pub fn u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

// --------------------------------------------------------------- reader

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current offset into the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One raw byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(TraceError::Truncated { at: self.pos }),
        }
    }

    /// `n` raw bytes, verbatim.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated { at: self.pos })?;
        if end > self.buf.len() {
            return Err(TraceError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// LEB128 varint. A tenth byte above 1 would carry bits past the
    /// 64th, so it is a [`TraceError::VarintOverflow`] (as is an 11th).
    // Forced: left to the heuristics, this stays an out-of-line call in
    // the event decoder, which measured ~10% slower decode.
    #[inline(always)]
    pub fn varint(&mut self) -> Result<u64, TraceError> {
        let start = self.pos;
        // Fast path: with a whole maximal varint in the buffer, bounds
        // are checked once here instead of once per byte.
        if let Some(window) = self.buf.get(start..start + MAX_VARINT_LEN) {
            let window: &[u8; MAX_VARINT_LEN] = window.try_into().expect("10-byte window");
            // One-byte values (tags, most deltas) skip the loop.
            if window[0] < 0x80 {
                self.pos = start + 1;
                return Ok(u64::from(window[0]));
            }
            let mut v = 0u64;
            for (i, &b) in window.iter().enumerate() {
                v |= u64::from(b & 0x7F) << (7 * i);
                if varint_ends(i, b) {
                    self.pos = start + i + 1;
                    return Ok(v);
                }
            }
            return Err(TraceError::VarintOverflow { at: start });
        }
        self.varint_near_end(start)
    }

    /// [`Reader::varint`] within 10 bytes of the end: per-byte checks,
    /// same values and errors.
    #[cold]
    fn varint_near_end(&mut self, start: usize) -> Result<u64, TraceError> {
        let mut v = 0u64;
        for i in 0..MAX_VARINT_LEN {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << (7 * i);
            if varint_ends(i, b) {
                return Ok(v);
            }
        }
        Err(TraceError::VarintOverflow { at: start })
    }

    /// Zigzag-encoded signed varint.
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, TraceError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Exact f64 bits, little-endian.
    pub fn f64_bits(&mut self) -> Result<f64, TraceError> {
        let b = self.bytes(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }

    /// u32, little-endian.
    pub fn u32_le(&mut self) -> Result<u32, TraceError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, TraceError> {
        let len = self.varint()? as usize;
        let at = self.pos;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::BadUtf8 { at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step loop the sliced kernel replaced: the
    /// reference it must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn varint_round_trips_boundary_values() {
        let cases =
            [0u64, 1, 127, 128, 129, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut w = Writer::new();
        for &v in &cases {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn zigzag_round_trips_signed_extremes() {
        let cases = [0i64, -1, 1, -2, i64::MIN, i64::MAX, -123_456, 123_456];
        let mut w = Writer::new();
        for &v in &cases {
            w.zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.zigzag().unwrap(), v);
        }
    }

    #[test]
    fn f64_transport_is_bit_exact() {
        let cases = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0];
        let mut w = Writer::new();
        for &v in &cases {
            w.f64_bits(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.f64_bits().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut w = Writer::new();
        w.str("4c-H-07 ünïcode");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().unwrap(), "4c-H-07 ünïcode");
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = Writer::new();
        w.varint(300);
        let mut bytes = w.into_bytes();
        bytes.truncate(1); // continuation bit set, then nothing
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.varint(), Err(TraceError::Truncated { at: 1 })));
        let mut r2 = Reader::new(&[]);
        assert!(matches!(r2.f64_bits(), Err(TraceError::Truncated { .. })));
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes: more than a u64 can hold.
        let bytes = [0x80u8; 10];
        let mut padded = bytes.to_vec();
        padded.push(0x01);
        let mut r = Reader::new(&padded);
        assert!(matches!(r.varint(), Err(TraceError::VarintOverflow { at: 0 })));

        // A tenth byte above 1 carries bits past the 64th; only 0x01 (the
        // top bit of u64::MAX) or 0x00 fits. Each case runs with and
        // without a trailing byte.
        let max = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        for tail in [&[][..], &[0x00][..]] {
            let mut ok = max.to_vec();
            ok.extend_from_slice(tail);
            assert_eq!(Reader::new(&ok).varint(), Ok(u64::MAX));
            for last in [0x7F, 0x02, 0x81] {
                let mut bad = max.to_vec();
                bad[9] = last;
                bad.extend_from_slice(tail);
                let mut r = Reader::new(&bad);
                assert_eq!(r.varint(), Err(TraceError::VarintOverflow { at: 0 }), "{bad:02x?}");
            }
        }
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        let mut v = 1u64;
        for _ in 0..64 {
            for x in [v - 1, v, v | (v >> 1)] {
                let mut w = Writer::new();
                w.varint(x);
                assert_eq!(varint_len(x), w.len(), "{x}");
            }
            v = v.wrapping_shl(1).max(1);
        }
        assert_eq!(varint_len(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn len_prefixed_equals_prefix_then_body() {
        // Every hint, right or wrong, gives the same bytes as writing the
        // length and then the body.
        for len in [0usize, 1, 127, 128, 300, 16_384, 20_000] {
            for hint in [0usize, 1, 127, 128, 16_383, 16_384, 1 << 21] {
                let body: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
                let mut want = Writer::new();
                want.u8(0xAA);
                want.varint(len as u64);
                want.bytes(&body);
                let mut got = Writer::new();
                got.u8(0xAA);
                let range = got.len_prefixed(hint, |w| w.bytes(&body));
                assert_eq!(got.as_bytes(), want.as_bytes(), "len {len} hint {hint}");
                assert_eq!(&got.as_bytes()[range], &body[..]);
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The sliced kernel equals the bytewise loop for every length
        /// across several 16-byte blocks and tails, whole and fed in two
        /// pieces split at every offset.
        #[test]
        fn sliced_crc_matches_the_bytewise_oracle(
            data in proptest::collection::vec(0u16..256, 300..301),
        ) {
            let data: Vec<u8> = data.iter().map(|&b| b as u8).collect();
            for len in 0..=data.len() {
                let bytes = &data[..len];
                let want = crc32_bytewise(bytes);
                prop_assert_eq!(crc32(bytes), want, "length {}", len);
                for split in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&bytes[..split]);
                    c.update(&bytes[split..]);
                    prop_assert_eq!(c.finish(), want, "length {} split {}", len, split);
                }
            }
        }
    }
}
