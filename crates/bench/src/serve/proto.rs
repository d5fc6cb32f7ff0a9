//! Wire framing for the serve protocol: length-prefixed JSON.
//!
//! Each frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON (the envelope defined in
//! [`wire`](crate::serve::wire)). The prefix makes message boundaries
//! explicit over a byte stream — no sentinel scanning, no ambiguity
//! with newlines inside JSON strings — and lets the reader reject
//! oversized frames *before* allocating for them. A frame within the
//! limit is read into a buffer that starts at 64 KiB at most and grows
//! only as payload bytes arrive, so a peer that declares a large frame
//! and stalls pins no more than that.

use std::io::{self, Read, Write};

/// Default per-frame size limit: generous for any `Entry` response at
/// the scales the harness sweeps, small enough that a malformed or
/// hostile length prefix cannot balloon allocation.
pub const MAX_FRAME_DEFAULT: usize = 8 * 1024 * 1024;

/// The most a frame's payload buffer holds before any payload byte has
/// arrived, whatever length the header declares.
const INITIAL_PAYLOAD_CAPACITY: usize = 64 * 1024;

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when the payload exceeds `u32::MAX`
/// bytes, otherwise whatever the underlying writer reports.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    // One buffered write so concurrent writers serialized by a mutex
    // never interleave a prefix with another frame's payload.
    let mut buf = Vec::with_capacity(4 + bytes.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(bytes);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, enforcing `max_frame` on the declared length.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames — the normal way a connection ends).
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] for a stream torn mid-frame,
/// [`io::ErrorKind::InvalidData`] for an over-limit length or non-UTF-8
/// payload, otherwise whatever the underlying reader reports.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max_frame}-byte limit"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(INITIAL_PAYLOAD_CAPACITY));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended inside a frame payload",
        ));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"v":1,"id":7}"#).unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "αβγ").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap().as_deref(),
            Some(r#"{"v":1,"id":7}"#)
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap().as_deref(),
            Some("")
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap().as_deref(),
            Some("αβγ")
        );
        assert!(read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap().is_none());
    }

    /// Hands out at most one byte per read, and records the largest
    /// buffer a caller offered.
    struct Trickle {
        bytes: Cursor<Vec<u8>>,
        largest_request: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_request = self.largest_request.max(buf.len());
            let end = buf.len().min(1);
            self.bytes.read(&mut buf[..end])
        }
    }

    fn trickle(bytes: Vec<u8>) -> Trickle {
        Trickle {
            bytes: Cursor::new(bytes),
            largest_request: 0,
        }
    }

    #[test]
    fn frame_over_initial_capacity_arrives_one_byte_at_a_time() {
        let payload = format!(r#"{{"blob":"{}"}}"#, "x".repeat(100_000));
        assert!(payload.len() > INITIAL_PAYLOAD_CAPACITY);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, "{}").unwrap();
        let mut r = trickle(buf);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap().as_deref(),
            Some(payload.as_str())
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap().as_deref(),
            Some("{}")
        );
        assert!(read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap().is_none());
    }

    #[test]
    fn header_declaring_the_limit_then_eof_allocates_only_the_initial_buffer() {
        let declared = u32::try_from(MAX_FRAME_DEFAULT).unwrap();
        let mut r = trickle(declared.to_be_bytes().to_vec());
        let err = read_frame(&mut r, MAX_FRAME_DEFAULT).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.largest_request <= INITIAL_PAYLOAD_CAPACITY,
            "the reader offered a {}-byte buffer before any payload arrived",
            r.largest_request
        );
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"whatever");
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn torn_header_and_torn_payload_are_distinguished_from_clean_eof() {
        // two bytes of a header, then EOF
        let err = read_frame(&mut Cursor::new(vec![0u8, 0]), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // full header declaring 10 bytes, only 3 present
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // no bytes at all: clean end of stream
        assert!(read_frame(&mut Cursor::new(Vec::new()), 1024)
            .unwrap()
            .is_none());
    }

    #[test]
    fn non_utf8_payload_is_invalid_data() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
