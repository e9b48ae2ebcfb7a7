//! Newline-delimited JSON framing, shared by every line-oriented
//! transport in the workspace.
//!
//! The dist worker/coordinator pair and the `flowsched serve` event
//! loop all speak the same wire discipline: one JSON object per line,
//! writes flushed eagerly (a line is either fully on the wire or not
//! sent), blank lines ignored on read, EOF reported as `None` rather
//! than an error, a line longer than [`MAX_FRAME_BYTES`] an error. This
//! module is that discipline, extracted from the worker so new services
//! cannot drift from it.
//!
//! Two layers:
//!
//! - **Line level** ([`write_line`], [`next_line_into`]):
//!   transport-agnostic string in / string out, for protocols with
//!   their own message types (fss-serve).
//! - **Message level** ([`send_msg`], [`read_msg`]): the same helpers
//!   specialized to the dist [`WireMsg`] protocol.
//!
//! Writers are addressed through a `Mutex` because every real producer
//! is multi-threaded (the worker's heartbeat thread, serve's engine
//! thread) and a torn line is a protocol error on the far side.

use std::io::{BufRead, Read, Write};
use std::sync::Mutex;

use crate::proto::WireMsg;

/// Longest frame, terminator included, a reader will buffer.
///
/// The reader holds one line at a time, so without a bound a peer that
/// never sends `\n` — `serve` reads TCP clients through this module —
/// grows this process's heap for as long as it keeps writing. The
/// largest legitimate frame in the workspace is a dist `Assign` of the
/// whole full-tier universe: 417 fingerprints at 19 bytes each (16 hex
/// digits, quotes, comma), under 16 KiB with its envelope. A `Result`
/// cell with telemetry is about 1 KiB and a serve arrival under 100
/// bytes. 1 MiB is 64 times the largest.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Write one frame (`line` must not contain `\n`) and flush, so the
/// frame is on the wire before the caller proceeds. Line and newline go
/// out in one `write_all`: on an unbuffered socket two writes are two
/// segments, and the second waits out Nagle's algorithm.
pub fn write_line<W: Write>(output: &Mutex<W>, line: &str) -> Result<(), String> {
    let mut frame = String::with_capacity(line.len() + 1);
    frame.push_str(line);
    frame.push('\n');
    let mut w = output.lock().map_err(|_| "output mutex poisoned")?;
    w.write_all(frame.as_bytes())
        .map_err(|e| format!("write line: {e}"))?;
    w.flush().map_err(|e| format!("flush line: {e}"))
}

/// Read the next non-blank line into `buf` (cleared first) and return it
/// trimmed; `None` on EOF, `Err` on a line longer than
/// [`MAX_FRAME_BYTES`]. A loop that keeps one `buf` reads without
/// allocating per line.
pub fn next_line_into<'a, R: BufRead>(
    input: &mut R,
    buf: &'a mut String,
) -> Result<Option<&'a str>, String> {
    loop {
        buf.clear();
        // One byte past the cap tells a frame over it from one at it;
        // the rest of an over-long frame is never buffered.
        let mut capped = input.by_ref().take(MAX_FRAME_BYTES as u64 + 1);
        let read = capped.read_line(buf);
        if capped.limit() == 0 {
            return Err(format!("line is longer than {MAX_FRAME_BYTES} bytes"));
        }
        if read.map_err(|e| format!("read line: {e}"))? == 0 {
            return Ok(None);
        }
        if !buf.trim().is_empty() {
            return Ok(Some(buf.trim()));
        }
    }
}

/// Send one dist protocol message ([`write_line`] of its JSONL form).
pub fn send_msg<W: Write>(output: &Mutex<W>, msg: &WireMsg) -> Result<(), String> {
    write_line(output, &msg.to_line())
}

/// Read the next dist protocol message, skipping blank lines; `None`
/// on EOF.
pub fn read_msg<R: BufRead>(input: &mut R) -> Result<Option<WireMsg>, String> {
    next_line_into(input, &mut String::new())?
        .map(WireMsg::parse)
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MsgKind;
    use std::io::Cursor;

    #[test]
    fn lines_round_trip_and_blanks_are_skipped() {
        let out = Mutex::new(Vec::new());
        write_line(&out, r#"{"kind":"Ready"}"#).unwrap();
        write_line(&out, r#"{"kind":"Done"}"#).unwrap();
        let mut bytes = out.into_inner().unwrap();
        bytes.splice(0..0, b"\n  \n".iter().copied()); // leading blank noise
        let mut input = Cursor::new(bytes);
        let mut buf = String::new();
        assert_eq!(
            next_line_into(&mut input, &mut buf).unwrap(),
            Some(r#"{"kind":"Ready"}"#)
        );
        assert_eq!(
            next_line_into(&mut input, &mut buf).unwrap(),
            Some(r#"{"kind":"Done"}"#)
        );
        assert_eq!(next_line_into(&mut input, &mut buf).unwrap(), None);
        assert_eq!(
            next_line_into(&mut input, &mut buf).unwrap(),
            None,
            "EOF is sticky"
        );
    }

    #[test]
    fn a_line_with_no_end_is_an_error_not_an_allocation() {
        let mut endless = std::io::BufReader::new(std::io::repeat(b'x'));
        let mut buf = String::new();
        let err = next_line_into(&mut endless, &mut buf).unwrap_err();
        assert_eq!(err, format!("line is longer than {MAX_FRAME_BYTES} bytes"));
        assert!(buf.len() <= MAX_FRAME_BYTES + 1, "buffered {}", buf.len());
        assert!(read_msg(&mut endless).is_err(), "dist reads under the cap");
    }

    #[test]
    fn the_cap_counts_the_terminator() {
        let mut buf = String::new();
        let at_cap = format!("{}\n", "x".repeat(MAX_FRAME_BYTES - 1));
        let line = next_line_into(&mut Cursor::new(at_cap), &mut buf).unwrap();
        assert_eq!(line.map(str::len), Some(MAX_FRAME_BYTES - 1));
        let over = format!("{}\n", "x".repeat(MAX_FRAME_BYTES));
        assert!(next_line_into(&mut Cursor::new(over), &mut buf).is_err());
    }

    #[test]
    fn a_frame_is_one_write() {
        struct CountWrites(usize);
        impl Write for CountWrites {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let out = Mutex::new(CountWrites(0));
        write_line(&out, r#"{"kind":"Ready"}"#).unwrap();
        assert_eq!(out.into_inner().unwrap().0, 1, "line and newline together");
    }

    #[test]
    fn messages_round_trip_through_the_frame_helpers() {
        let out = Mutex::new(Vec::new());
        send_msg(&out, &WireMsg::ready(7)).unwrap();
        send_msg(&out, &WireMsg::shutdown()).unwrap();
        let mut input = Cursor::new(out.into_inner().unwrap());
        let first = read_msg(&mut input).unwrap().unwrap();
        assert_eq!(first.kind, MsgKind::Ready);
        assert_eq!(first.cells, Some(7));
        assert_eq!(
            read_msg(&mut input).unwrap().unwrap().kind,
            MsgKind::Shutdown
        );
        assert!(read_msg(&mut input).unwrap().is_none());
    }

    #[test]
    fn garbage_line_is_a_parse_error_not_a_panic() {
        let mut input = Cursor::new(b"not json\n".to_vec());
        assert!(read_msg(&mut input).is_err());
    }
}
