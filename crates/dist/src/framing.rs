//! The bounded line reader `flowsched serve` reads its clients through.
//!
//! One line at a time, blank lines ignored, EOF reported as `None`
//! rather than an error, a line longer than [`MAX_FRAME_BYTES`] an
//! error.

use std::io::{BufRead, Read};

/// Longest frame, terminator included, a reader will buffer.
///
/// The reader holds one line at a time, so without a bound a peer that
/// never sends `\n` — `serve` reads TCP clients through this module —
/// grows this process's heap for as long as it keeps writing. A serve
/// arrival is under 100 bytes; 1 MiB is four orders of magnitude above
/// any legitimate line.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn lines_round_trip_and_blanks_are_skipped() {
        let bytes = b"\n  \n{\"kind\":\"Ready\"}\n\n{\"kind\":\"Done\"}\n".to_vec();
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
}
