//! Incremental stream framing: the file format's section discipline,
//! reusable over a byte stream that arrives in arbitrary chunks.
//!
//! ```text
//! frame := tag u8 | payload-len varint | payload | crc32(tag || payload) u32le
//! ```
//!
//! The shape is the file format's section shape with one deliberate
//! difference: the checksum covers the **tag byte as well as the
//! payload**. In a file the expected tag is implied by the schema and
//! checked structurally, but a stream has no expected-tag context — a
//! flipped tag byte must fail the checksum instead of dispatching an
//! intact payload to the wrong handler.
//!
//! [`FrameAssembler`] is the receive half: push chunks split at *any*
//! byte boundary, pull complete CRC-checked [`Frame`]s. It is strict the
//! same way the file decoder is — a checksum mismatch, oversized
//! declared length or malformed length varint is a typed
//! [`TraceError`], and the error is **sticky**: once framing is lost
//! there is no way to resynchronize a length-prefixed stream, so every
//! later call reports the same error and the connection must be
//! dropped. Memory is bounded by construction: complete frames are
//! consumed eagerly, so the buffer never holds more than one incomplete
//! frame (at most `1 + 10 + max_payload + 4` bytes).

use crate::codec::{Crc32, Reader, TraceError, Writer, MAX_VARINT_LEN};

/// Default cap on a frame's declared payload length (16 MiB). A frame
/// is one protocol message — orders of magnitude below this — so the
/// cap only exists to keep a corrupt or hostile length varint from
/// provoking an unbounded allocation.
pub const DEFAULT_MAX_PAYLOAD: usize = 16 << 20;

/// One complete, CRC-verified frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's tag byte (protocol message discriminant).
    pub tag: u8,
    /// The frame's payload, exactly as sent.
    pub payload: Vec<u8>,
}

/// Encode one frame: tag, payload length varint, payload, then the
/// CRC-32 of tag ‖ payload.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(1 + MAX_VARINT_LEN + payload.len() + 4);
    w.u8(tag);
    w.varint(payload.len() as u64);
    w.bytes(payload);
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(payload);
    w.u32_le(crc.finish());
    w.into_bytes()
}

/// Reassembles frames from a chunked byte stream (see the module docs).
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    start: usize,
    max_payload: usize,
    /// Sticky failure: a framing error is unrecoverable on a
    /// length-prefixed stream.
    failed: Option<TraceError>,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    /// An assembler with the [`DEFAULT_MAX_PAYLOAD`] length cap.
    pub fn new() -> FrameAssembler {
        FrameAssembler::with_max_payload(DEFAULT_MAX_PAYLOAD)
    }

    /// An assembler rejecting frames whose declared payload exceeds
    /// `max_payload` bytes (the per-connection allocation bound).
    pub fn with_max_payload(max_payload: usize) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), start: 0, max_payload, failed: None }
    }

    /// Append a received chunk (any size, split anywhere). Ignored once
    /// the assembler has failed.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.failed.is_none() {
            self.buf.extend_from_slice(chunk);
        }
    }

    /// Bytes buffered but not yet consumed as complete frames. After
    /// the peer closes, a non-zero value means the stream ended inside
    /// a frame (truncation).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a previous [`FrameAssembler::next_frame`] failed (the
    /// error is permanent).
    pub fn is_failed(&self) -> bool {
        self.failed.is_some()
    }

    /// Pull the next complete frame: `Ok(None)` when more bytes are
    /// needed, `Ok(Some(frame))` when one is ready, and a sticky
    /// [`TraceError`] when framing is lost (CRC mismatch, oversized or
    /// malformed length).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, TraceError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.parse() {
            Ok(None) => Ok(None),
            Ok(Some((frame, consumed))) => {
                self.start += consumed;
                // Compact once the dead prefix dominates, so a
                // long-lived connection's buffer stays proportional to
                // its *unconsumed* bytes.
                if self.start > 4096 && self.start * 2 >= self.buf.len() {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                Ok(Some(frame))
            }
            Err(e) => {
                self.failed = Some(e.clone());
                self.buf = Vec::new();
                self.start = 0;
                Err(e)
            }
        }
    }

    /// Try to parse one frame from the unconsumed bytes; `None` means
    /// incomplete (wait for more), `Some((frame, n))` consumed `n`.
    fn parse(&self) -> Result<Option<(Frame, usize)>, TraceError> {
        let avail = &self.buf[self.start..];
        let mut r = Reader::new(avail);
        let Ok(tag) = r.u8() else { return Ok(None) };
        // The length varint must be decoded incrementally: distinguish
        // "ran out of bytes mid-varint" (incomplete) from a true
        // overflow (corrupt).
        let len = match r.varint() {
            Ok(v) => v,
            Err(TraceError::Truncated { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        if len > self.max_payload as u64 {
            return Err(TraceError::BadSection { section: "FRAME" });
        }
        let Ok(payload) = r.bytes(len as usize) else { return Ok(None) };
        let Ok(stored) = r.u32_le() else { return Ok(None) };
        let mut crc = Crc32::new();
        crc.update(&[tag]);
        crc.update(payload);
        let computed = crc.finish();
        if stored != computed {
            return Err(TraceError::Crc { section: "FRAME", stored, computed });
        }
        Ok(Some((Frame { tag, payload: payload.to_vec() }, r.pos())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<(u8, Vec<u8>)> {
        vec![
            (1, b"hello".to_vec()),
            (2, Vec::new()),
            (3, (0u8..=255).collect()),
            (2, vec![0x80; 300]), // payload bytes that look like varint continuations
        ]
    }

    fn stream_of(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
        frames.iter().flat_map(|(t, p)| encode_frame(*t, p)).collect()
    }

    /// Feed `stream` in chunks of `chunk` bytes; collect everything.
    fn assemble(stream: &[u8], chunk: usize) -> Result<Vec<Frame>, TraceError> {
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk.max(1)) {
            asm.push(piece);
            while let Some(f) = asm.next_frame()? {
                out.push(f);
            }
        }
        assert_eq!(asm.buffered(), 0, "a whole stream leaves no residue");
        Ok(out)
    }

    #[test]
    fn frames_reassemble_at_every_chunk_size() {
        let frames = sample_frames();
        let stream = stream_of(&frames);
        for chunk in 1..=stream.len() {
            let got = assemble(&stream, chunk).expect("clean stream");
            assert_eq!(got.len(), frames.len(), "chunk size {chunk}");
            for (g, (t, p)) in got.iter().zip(&frames) {
                assert_eq!((g.tag, &g.payload), (*t, p));
            }
        }
    }

    #[test]
    fn one_big_push_yields_all_frames() {
        let frames = sample_frames();
        let stream = stream_of(&frames);
        let got = assemble(&stream, stream.len()).unwrap();
        assert_eq!(got.len(), frames.len());
    }

    #[test]
    fn incomplete_frames_wait_for_more_bytes() {
        let bytes = encode_frame(7, b"partial");
        let mut asm = FrameAssembler::new();
        for cut in 0..bytes.len() {
            asm.push(&bytes[cut..cut + 1]);
            if cut + 1 < bytes.len() {
                assert_eq!(asm.next_frame().unwrap(), None, "cut at {cut}");
                assert_eq!(asm.buffered(), cut + 1);
            }
        }
        let f = asm.next_frame().unwrap().expect("complete now");
        assert_eq!((f.tag, f.payload.as_slice()), (7, b"partial".as_slice()));
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn crc_mismatch_is_a_sticky_error() {
        let mut bytes = encode_frame(1, b"abcdef");
        let good = encode_frame(2, b"next");
        let n = bytes.len();
        bytes[n - 6] ^= 0x01; // inside the payload
        bytes.extend_from_slice(&good);
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        assert!(matches!(asm.next_frame(), Err(TraceError::Crc { section: "FRAME", .. })));
        assert!(asm.is_failed());
        // The error is permanent: the intact frame behind it is
        // unreachable because framing is lost.
        assert!(asm.next_frame().is_err());
        asm.push(&good);
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn tag_corruption_fails_the_checksum() {
        // The frame CRC covers the tag byte (unlike file sections):
        // flipping only the tag must be caught.
        let mut bytes = encode_frame(1, b"payload");
        bytes[0] ^= 0x04;
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        assert!(matches!(asm.next_frame(), Err(TraceError::Crc { section: "FRAME", .. })));
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_allocating() {
        let mut asm = FrameAssembler::with_max_payload(64);
        let mut w = Writer::new();
        w.u8(1);
        w.varint(1 << 40); // a length no honest peer declares
        asm.push(&w.into_bytes());
        assert_eq!(asm.next_frame(), Err(TraceError::BadSection { section: "FRAME" }));
        assert!(asm.is_failed());
    }

    #[test]
    fn length_varint_overflow_is_rejected() {
        let mut asm = FrameAssembler::new();
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&[0x80; 10]); // 10 continuation bytes
        bytes.push(0x01);
        asm.push(&bytes);
        assert!(matches!(asm.next_frame(), Err(TraceError::VarintOverflow { .. })));
    }

    #[test]
    fn every_bitflip_in_a_stream_is_observable() {
        // The stream analogue of the file suite's
        // `crc_catches_bitflips_that_still_parse`: flipping any single
        // bit must produce a typed error, different frames, or a
        // truncated (starved) stream — never the original frames
        // reassembled cleanly from corrupt bytes.
        let frames = sample_frames();
        let clean = stream_of(&frames);
        for pos in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut bytes = clean.clone();
                bytes[pos] ^= bit;
                let mut asm = FrameAssembler::new();
                asm.push(&bytes);
                let mut got = Vec::new();
                let verdict = loop {
                    match asm.next_frame() {
                        Err(_) => break "error",
                        Ok(None) => break "starved",
                        Ok(Some(f)) => got.push(f),
                    }
                };
                let matches_original = got.len() == frames.len()
                    && got.iter().zip(&frames).all(|(g, (t, p))| g.tag == *t && &g.payload == p)
                    && asm.buffered() == 0;
                assert!(
                    !matches_original,
                    "bitflip {bit:#x} at byte {pos} went unnoticed (verdict: {verdict})"
                );
            }
        }
    }

    #[test]
    fn long_streams_compact_the_consumed_prefix() {
        // Push many frames through one assembler in a single buffer
        // lifetime; the compaction keeps memory bounded (observable via
        // buffered() returning to zero, and no panics from offsets).
        let mut asm = FrameAssembler::new();
        let frame = encode_frame(9, &[0xAB; 512]);
        for round in 0..64 {
            asm.push(&frame);
            let f = asm.next_frame().unwrap().unwrap_or_else(|| panic!("round {round}"));
            assert_eq!(f.payload.len(), 512);
            assert_eq!(asm.buffered(), 0);
        }
    }
}
