//! Length-prefixed JSON frame codec (DESIGN.md §13.2).
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The codec is deliberately dumb: framing is the
//! only thing it knows, so it can be exhaustively property-tested
//! against malformed, truncated, oversized, and interleaved input
//! without dragging the protocol layer in. Nothing here panics on
//! attacker-controlled bytes — every failure is a typed [`FrameError`].

use std::io::{ErrorKind, Read, Write};

/// Hard ceiling on a single frame payload. A peer announcing more is a
/// protocol violation (or garbage bytes misread as a length prefix) and
/// is rejected *before* any allocation of the announced size.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Maximum JSON nesting depth accepted from the wire. The recursive-
/// descent `Json::parse` recurses per nesting level, so unbounded depth
/// from an untrusted peer is a stack-overflow vector; 64 levels is far
/// beyond any legitimate request (they nest 3 deep).
pub const MAX_JSON_DEPTH: usize = 64;

/// Framing failure. All variants are protocol errors, not bugs: they
/// map to a structured error response and/or a clean connection close.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix announced more than [`MAX_FRAME_BYTES`].
    Oversized {
        /// Announced payload length.
        announced: usize,
    },
    /// The stream ended mid-frame (inside the prefix or the payload).
    Truncated,
    /// Underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { announced } => {
                write!(f, "frame of {announced} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (prefix + payload).
///
/// # Errors
/// Socket errors; payloads over [`MAX_FRAME_BYTES`] are refused.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("refusing to send a {}-byte frame", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Blocking read of one frame. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF inside a frame is [`FrameError::Truncated`].
///
/// # Errors
/// [`FrameError`] on oversized prefixes, mid-frame EOF, or socket
/// errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(r, &mut prefix) {
        Ok(0) => return Ok(None),
        Ok(4) => {}
        Ok(_) => return Err(FrameError::Truncated),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let announced = u32::from_be_bytes(prefix) as usize;
    if announced > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { announced });
    }
    let mut payload = vec![0u8; announced];
    match read_exact_or_eof(r, &mut payload) {
        Ok(n) if n == announced => Ok(Some(payload)),
        Ok(_) => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Fills `buf` unless EOF arrives first; returns the bytes read.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Pre-parse guard: scans the raw bytes with a string-aware state
/// machine and reports whether bracket/brace nesting stays within
/// `max_depth`. Run before `Json::parse` on anything from the wire —
/// the parser's recursion is otherwise attacker-controlled.
pub fn depth_within(bytes: &[u8], max_depth: usize) -> bool {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for &b in bytes {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                depth += 1;
                if depth > max_depth {
                    return false;
                }
            }
            b'}' | b']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_decoder() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"second");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn split_prefix_waits_for_more() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        // `Chain` hands out the first two prefix bytes on their own read.
        let mut r = (&wire[..2]).chain(&wire[2..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"abc");
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut r = &u32::MAX.to_be_bytes()[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn depth_guard_sees_through_strings() {
        assert!(depth_within(br#"{"a":"}]]]]["}"#, 2));
        assert!(!depth_within(b"[[[[", 3));
        // Escaped quote inside a string must not end the string.
        assert!(depth_within(br#"{"a":"\"[["}"#, 2));
    }
}
