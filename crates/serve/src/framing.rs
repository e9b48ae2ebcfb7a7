//! The line cap on both ends of a serve connection.
//!
//! Every line a serve process reads (a client's ingest, over stdio or
//! TCP) and every line a client of it reads (the response stream, in
//! the soak harness and in `flowsched serve --replay`) goes through
//! [`fss_sim::Lines`], the workspace's one line reader, capped at
//! [`MAX_FRAME_BYTES`]: one line at a time, blank lines skipped, the
//! end of the stream `None` rather than an error, a longer line an
//! error.

use fss_sim::Lines;
use std::io::{BufRead, BufReader, Read};

/// Longest line, terminator included, either end of a serve connection
/// reads.
///
/// The reader holds one line at a time, so without a bound a peer that
/// never sends `\n` grows the reading process's heap for as long as it
/// keeps writing. An arrival line is under 100 bytes and a `Metrics`
/// reply a few KiB; 1 MiB is far above any legitimate line.
pub(crate) const MAX_FRAME_BYTES: usize = 1 << 20;

/// The lines of `input` (named `label` in read errors), none longer
/// than [`MAX_FRAME_BYTES`].
pub(crate) fn frames<R: BufRead>(input: R, label: &str) -> Lines<R> {
    Lines::new(input, label, MAX_FRAME_BYTES)
}

/// Read a server's response stream to its end, handing each line,
/// trimmed, to `on_line`: what serve's clients read with. `Err` on a
/// line over 1 MiB, a line that is not UTF-8, or a failed read; the
/// lines before it have been handed over.
pub fn read_responses(stream: impl Read, mut on_line: impl FnMut(&str)) -> Result<(), String> {
    let mut lines = frames(BufReader::new(stream), "read response");
    while let Some((_, line)) = lines.next_line().map_err(|e| e.to_string())? {
        on_line(line.trim());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn all(bytes: &[u8]) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        read_responses(bytes, |line| out.push(line.to_string()))?;
        Ok(out)
    }

    #[test]
    fn lines_round_trip_and_blanks_are_skipped() {
        let bytes = b"\n  \n{\"kind\":\"Ready\"}\n\n{\"kind\":\"Done\"}\r\n";
        let mut lines = frames(&bytes[..], "<test>");
        let mut next = || lines.next_line().unwrap().map(|(n, l)| (n, l.to_string()));
        assert_eq!(next(), Some((3, r#"{"kind":"Ready"}"#.to_string())));
        assert_eq!(next(), Some((5, r#"{"kind":"Done"}"#.to_string())));
        assert_eq!(next(), None);
        assert_eq!(next(), None, "EOF is sticky");
        assert_eq!(
            all(bytes).unwrap(),
            [r#"{"kind":"Ready"}"#, r#"{"kind":"Done"}"#]
        );
    }

    #[test]
    fn a_line_with_no_end_is_an_error_not_an_allocation() {
        // Without the cap this read would buffer until memory ran out.
        let mut endless = frames(BufReader::new(std::io::repeat(b'x')), "<endless>");
        let err = endless.next_line().unwrap_err().to_string();
        assert_eq!(
            err,
            format!("line 1: line is longer than {MAX_FRAME_BYTES} bytes")
        );
        let err = read_responses(std::io::repeat(b'x'), |_| panic!("no whole line")).unwrap_err();
        assert_eq!(
            err,
            format!("line 1: line is longer than {MAX_FRAME_BYTES} bytes")
        );
    }

    #[test]
    fn the_cap_counts_the_terminator() {
        let at_cap = format!("{}\n", "x".repeat(MAX_FRAME_BYTES - 1));
        let mut lines = frames(Cursor::new(at_cap), "<test>");
        let line = lines.next_line().unwrap().map(|(_, l)| l.len());
        assert_eq!(line, Some(MAX_FRAME_BYTES - 1));
        let over = format!("{{}}\n{}\n", "x".repeat(MAX_FRAME_BYTES));
        let err = all(over.as_bytes()).unwrap_err();
        assert!(err.starts_with("line 2: line is longer"), "{err}");
    }
}
