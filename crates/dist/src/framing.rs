//! Newline-delimited JSON framing, shared by every line-oriented
//! transport in the workspace.
//!
//! The dist worker/coordinator pair and the `flowsched serve` event
//! loop all speak the same wire discipline: one JSON object per line,
//! writes flushed eagerly (a line is either fully on the wire or not
//! sent), blank lines ignored on read, EOF reported as `None` rather
//! than an error. This module is that discipline, extracted from the
//! worker so new services cannot drift from it.
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

use std::io::{BufRead, Write};
use std::sync::Mutex;

use crate::proto::WireMsg;

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
/// trimmed; `None` on EOF. A loop that keeps one `buf` reads without
/// allocating per line.
pub fn next_line_into<'a, R: BufRead>(
    input: &mut R,
    buf: &'a mut String,
) -> Result<Option<&'a str>, String> {
    loop {
        buf.clear();
        let n = input
            .read_line(buf)
            .map_err(|e| format!("read line: {e}"))?;
        if n == 0 {
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
