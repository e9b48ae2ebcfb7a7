//! Streaming replay of arrival-trace files, one line at a time, over
//! the workspace's one line reader.
//!
//! [`Lines`] is that reader: the non-blank lines of any `BufRead`,
//! numbered from 1, each at most a cap its caller picks, decoded as
//! UTF-8, with one reused line buffer. Every line the workspace reads
//! from an `io::Read` goes through it except the flight spool's
//! (`fss-flight` depends on no crate that has it): trace files here
//! ([`MAX_LINE_BYTES`]), coflow CSV in `convert`, `flowsched serve`'s
//! ingest over stdio and TCP and its clients' reads of the response
//! stream (`fss_serve`, 1 MiB), and the bench checkpoint
//! (`fss_sim::report::read_cells_jsonl`, 1 MiB). A line over the cap
//! is an error naming its number, and the rest of it is never
//! buffered, so a peer that never sends `\n` costs at most the cap.
//!
//! [`StreamingTraceSource`] is a [`FlowSource`] over an on-disk JSONL
//! arrival trace that never materializes the file: all it holds is the
//! `BufReader`'s block and one line buffer, so a 10⁸-flow trace replays
//! at the same peak memory as a 10³-flow one. Each
//! [`FlowSource::next_arrival`] call reads, parses and checks one line —
//! header shape, the [`ArrivalCheck`] rule (port range, sorted releases,
//! the release bound), 1-based line numbers — so a malformed file is
//! rejected at its first offending line. This is the only trace reader
//! in the workspace: `fss_sim::ArrivalTrace::from_jsonl` drains one
//! into a `Vec`.
//!
//! **When a line is copied.** An arrival is first looked for in the
//! block itself (`fill_buf`): a block that opens with a whole canonical
//! arrival line and its `\n` — what the crate's writer emits — is parsed
//! in place and exactly those bytes are consumed. Only the rest takes
//! the line path, which copies the line into the line buffer, checks it
//! is UTF-8 and hands it to [`parse_trace_event`]: the header, blank
//! lines, CRLF or any other non-canonical spelling, a line the block
//! ends inside, a last line without a newline, an over-long line, and a
//! failed read. On a machine-written file that is the header plus one
//! line per block boundary. The file's bytes pick the path, and the two
//! read every line alike (`crates/sim/tests/trace_text.rs` checks it at
//! every block size from 1 to 80 bytes).
//!
//! [`FlowSource::next_arrival`] cannot return an error, so a mid-stream
//! validation failure ends the stream and parks the error in a shared
//! [`TraceErrorHandle`] the caller keeps after boxing the source —
//! execution paths check it after the run and fail loudly instead of
//! silently truncating. Paths that want load-time errors (the scenario
//! layer, `bench --trace`) use [`StreamingTraceSource::open_validated`]
//! or [`scan`], which stream the whole file through the same validator
//! first, still at O(1) memory.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::sync::{Arc, Mutex};

use fss_core::prelude::*;
use fss_engine::FlowSource;

use crate::line::{
    framed_canonical_arrival, parse_trace_event, ArrivalCheck, TraceEvent, TraceFileError,
    TraceLine, MAX_LINE_BYTES,
};

/// What a full validation pass learned about a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Switch size declared by the header.
    pub ports: usize,
    /// Total arrivals.
    pub flows: u64,
    /// One past the last release round (0 for an arrival-free trace).
    pub horizon: u64,
}

/// Shared slot a [`StreamingTraceSource`] parks a mid-stream validation
/// error in. Clone it before boxing the source into an engine run, and
/// check it afterwards: `None` means the stream ended cleanly.
#[derive(Debug, Clone, Default)]
pub struct TraceErrorHandle(Arc<Mutex<Option<TraceFileError>>>);

impl TraceErrorHandle {
    /// The recorded error, if the stream failed validation mid-replay.
    pub fn get(&self) -> Option<TraceFileError> {
        self.0.lock().expect("trace error slot").clone()
    }

    fn set(&self, err: TraceFileError) {
        let mut slot = self.0.lock().expect("trace error slot");
        // First error wins: it names the first offending line.
        slot.get_or_insert(err);
    }
}

/// The non-blank lines of a text stream, numbered and bounded: the
/// workspace's one line reader (see the module docs for its callers).
#[derive(Debug)]
pub struct Lines<R> {
    reader: R,
    label: String,
    /// Longest line, terminator included, the stream may contain.
    cap: usize,
    /// 1-based number of the last line consumed from the reader.
    line_no: usize,
    buf: String,
    /// Lines copied into `buf`, blank ones included; what the framed
    /// path saves shows up here (the module tests read it).
    buffered: usize,
}

impl<R: BufRead> Lines<R> {
    /// Lines of `reader` (named `label` in I/O errors), none longer than
    /// `cap` bytes, terminator included.
    pub fn new(reader: R, label: impl Into<String>, cap: usize) -> Lines<R> {
        Lines {
            reader,
            label: label.into(),
            cap,
            line_no: 0,
            buf: String::new(),
            buffered: 0,
        }
    }

    /// The next non-blank line (`\n` and any `\r` before it stripped)
    /// and its 1-based number; `Ok(None)` at the end of the stream. A
    /// line over the cap, a line that is not UTF-8 and a failed read are
    /// errors. The line buffer is reused, so a loop over a stream
    /// allocates only while its lines grow.
    pub fn next_line(&mut self) -> Result<Option<(usize, &str)>, TraceFileError> {
        loop {
            // The line is read as bytes and decoded in place, so a line
            // that is not UTF-8 is a parse error that names it.
            let mut bytes = std::mem::take(&mut self.buf).into_bytes();
            bytes.clear();
            // One byte past the cap tells a line over it from one at it;
            // the rest of an over-long line is never buffered.
            let mut capped = (&mut self.reader).take(self.cap as u64 + 1);
            let read = capped.read_until(b'\n', &mut bytes);
            if capped.limit() == 0 {
                return Err(TraceFileError::Parse {
                    line: self.line_no + 1,
                    msg: format!("line is longer than {} bytes", self.cap),
                });
            }
            if read.map_err(|e| TraceFileError::io(&self.label, e))? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            self.buffered += 1;
            self.buf = String::from_utf8(bytes).map_err(|_| TraceFileError::Parse {
                line: self.line_no,
                msg: "not valid UTF-8".into(),
            })?;
            if !self.buf.trim().is_empty() {
                break;
            }
        }
        Ok(Some((
            self.line_no,
            self.buf.trim_end_matches(['\n', '\r']),
        )))
    }

    /// Consume the lines up to the `{"ports":N}` header; its port count.
    fn header(&mut self) -> Result<usize, TraceFileError> {
        let Some((line, text)) = self.next_line()? else {
            return Err(TraceFileError::Parse {
                line: 1,
                msg: "empty trace file (expected a {\"ports\":N} header)".into(),
            });
        };
        let msg = match parse_trace_event(text) {
            Ok(TraceEvent::Header { ports: 0 }) => "header declares zero ports".into(),
            Ok(TraceEvent::Header { ports }) => return Ok(ports),
            Ok(TraceEvent::Arrival { .. }) => {
                "expected a {\"ports\":N} header before arrivals".into()
            }
            Err(e) => format!("bad header: {e}"),
        };
        Err(TraceFileError::Parse { line, msg })
    }
}

/// A [`FlowSource`] that replays a JSONL arrival trace from any
/// buffered reader at O(1) memory. Use the [`StreamingTraceSource`]
/// alias for the common file-backed case.
#[derive(Debug)]
pub struct StreamingTraceReader<R: BufRead> {
    lines: Lines<R>,
    check: ArrivalCheck,
    next_id: u64,
    horizon: Option<u64>,
    done: bool,
    error: TraceErrorHandle,
}

/// The file-backed streaming trace source.
pub type StreamingTraceSource = StreamingTraceReader<BufReader<File>>;

impl StreamingTraceSource {
    /// Open a trace file and validate its header (O(1) work). The body
    /// is validated incrementally during replay; see
    /// [`StreamingTraceSource::open_validated`] for load-time errors.
    pub fn open(path: impl AsRef<Path>) -> Result<StreamingTraceSource, TraceFileError> {
        let path = path.as_ref();
        let label = path.display().to_string();
        let file = File::open(path).map_err(|e| TraceFileError::io(&label, e))?;
        StreamingTraceReader::from_reader(BufReader::with_capacity(1 << 18, file), label)
    }

    /// Open a trace file *after* streaming a full validation pass over
    /// it ([`scan`]): any malformed line is reported now, not mid-run.
    /// Peak memory stays O(1); the file is read twice.
    pub fn open_validated(path: impl AsRef<Path>) -> Result<StreamingTraceSource, TraceFileError> {
        let path = path.as_ref();
        scan(path)?;
        StreamingTraceSource::open(path)
    }
}

impl<R: BufRead> StreamingTraceReader<R> {
    /// Wrap any buffered reader positioned at the start of a trace
    /// (header line first). `label` names the stream in errors.
    pub fn from_reader(
        reader: R,
        label: impl Into<String>,
    ) -> Result<StreamingTraceReader<R>, TraceFileError> {
        let mut lines = Lines::new(reader, label, MAX_LINE_BYTES);
        let ports = lines.header()?;
        Ok(StreamingTraceReader {
            lines,
            check: ArrivalCheck::new(ports),
            next_id: 0,
            horizon: None,
            done: false,
            error: TraceErrorHandle::default(),
        })
    }

    /// Replay only arrivals with `release < horizon` (`None` = all).
    pub fn with_horizon(mut self, horizon: Option<u64>) -> Self {
        self.horizon = horizon;
        self
    }

    /// Switch size declared by the header.
    pub fn ports(&self) -> usize {
        self.check.ports()
    }

    /// The shared error slot. Clone it before handing the source to an
    /// engine run, and check it afterwards: a mid-stream validation
    /// failure ends the stream early and records itself here.
    pub fn error_handle(&self) -> TraceErrorHandle {
        self.error.clone()
    }

    /// Run the stream to its end, handing each arrival (in file order)
    /// to `on_arrival`: the summary of what was read, or the error that
    /// stopped it.
    pub fn drain(
        mut self,
        mut on_arrival: impl FnMut(&Arrival),
    ) -> Result<TraceSummary, TraceFileError> {
        let mut flows = 0u64;
        let mut horizon = 0u64;
        while let Some(a) = self.next_arrival() {
            flows += 1;
            horizon = a.release + 1;
            on_arrival(&a);
        }
        match self.error.get() {
            Some(err) => Err(err),
            None => Ok(TraceSummary {
                ports: self.ports(),
                flows,
                horizon,
            }),
        }
    }

    /// Read, parse and check the next arrival line; `Ok(None)` at the
    /// end of the stream or of the horizon.
    fn read_arrival(&mut self) -> Result<Option<Arrival>, TraceFileError> {
        let (line, TraceLine { release, src, dst }) = match self.framed_arrival() {
            Some(framed) => framed,
            None => {
                let Some((line, text)) = self.lines.next_line()? else {
                    return Ok(None);
                };
                match parse_trace_event(text) {
                    Ok(TraceEvent::Arrival { release, src, dst }) => {
                        (line, TraceLine { release, src, dst })
                    }
                    Ok(TraceEvent::Header { .. }) => {
                        return Err(TraceFileError::Parse {
                            line,
                            msg: "unexpected second header".into(),
                        })
                    }
                    Err(msg) => return Err(TraceFileError::Parse { line, msg }),
                }
            }
        };
        self.check.admit(line, release, src, dst)?;
        // Sorted releases: nothing later can pass either.
        if self.horizon.is_some_and(|h| release >= h) {
            return Ok(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        Ok(Some(Arrival {
            id,
            src,
            dst,
            release,
        }))
    }

    /// The framed path: if the reader's block opens with a whole
    /// canonical arrival line and its `\n`, parse it where it lies,
    /// consume exactly its bytes and number it. `None` (anything else,
    /// a read error included) leaves the reader as it was for the line
    /// path.
    #[inline]
    fn framed_arrival(&mut self) -> Option<(usize, TraceLine)> {
        let lines = &mut self.lines;
        let (arrival, len) = framed_canonical_arrival(lines.reader.fill_buf().ok()?)?;
        lines.reader.consume(len);
        lines.line_no += 1;
        Some((lines.line_no, arrival))
    }
}

impl<R: BufRead> FlowSource for StreamingTraceReader<R> {
    fn m_in(&self) -> usize {
        self.ports()
    }

    fn m_out(&self) -> usize {
        self.ports()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.done {
            return None;
        }
        let next = self.read_arrival().unwrap_or_else(|e| {
            self.error.set(e);
            None
        });
        self.done = next.is_none();
        next
    }
}

/// Stream a full validation pass over a trace file at O(1) memory:
/// every line is parsed and checked exactly as replay would, and the
/// first violation is returned. On success, returns the file's
/// [`TraceSummary`].
pub fn scan(path: impl AsRef<Path>) -> Result<TraceSummary, TraceFileError> {
    scan_with(path, |_| {})
}

/// [`scan`] with a per-arrival callback (in file order) — the one-pass
/// backbone behind `trace stats` and the converter's self-checks.
pub fn scan_with(
    path: impl AsRef<Path>,
    on_arrival: impl FnMut(&Arrival),
) -> Result<TraceSummary, TraceFileError> {
    StreamingTraceSource::open(path)?.drain(on_arrival)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(text: &str) -> StreamingTraceReader<Cursor<&[u8]>> {
        StreamingTraceReader::from_reader(Cursor::new(text.as_bytes()), "<test>").unwrap()
    }

    fn try_reader(text: &str) -> Result<StreamingTraceReader<Cursor<&[u8]>>, TraceFileError> {
        StreamingTraceReader::from_reader(Cursor::new(text.as_bytes()), "<test>")
    }

    fn drain<R: BufRead>(mut s: StreamingTraceReader<R>) -> (Vec<Arrival>, Option<TraceFileError>) {
        let mut out = Vec::new();
        while let Some(a) = s.next_arrival() {
            out.push(a);
        }
        (out, s.error_handle().get())
    }

    #[test]
    fn replays_in_order_with_sequence_ids() {
        let s = reader("{\"ports\":4}\n{\"release\":0,\"src\":0,\"dst\":1}\n{\"release\":2,\"src\":3,\"dst\":2}\n");
        assert_eq!(s.ports(), 4);
        let (all, err) = drain(s);
        assert_eq!(err, None);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, 0);
        assert_eq!(all[1].id, 1);
        assert_eq!(all[1].release, 2);
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline_are_tolerated() {
        let s = reader("\n{\"ports\":2}\n\n{\"release\":0,\"src\":0,\"dst\":1}\n\n{\"release\":1,\"src\":1,\"dst\":0}");
        let (all, err) = drain(s);
        assert_eq!(err, None);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn header_diagnostics_match_the_in_memory_loader() {
        assert_eq!(
            try_reader("").unwrap_err(),
            TraceFileError::Parse {
                line: 1,
                msg: "empty trace file (expected a {\"ports\":N} header)".into()
            }
        );
        assert!(matches!(
            try_reader("{\"release\":0,\"src\":0,\"dst\":0}\n").unwrap_err(),
            TraceFileError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            try_reader("{\"ports\":0}\n").unwrap_err(),
            TraceFileError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            try_reader("\n\nnot a header\n").unwrap_err(),
            TraceFileError::Parse { line: 3, .. }
        ));
    }

    #[test]
    fn body_violations_carry_line_numbers() {
        let s = reader("{\"ports\":2}\n{\"release\":0,\"src\":0,\"dst\":1}\n{\"release\":1,\"src\":2,\"dst\":0}\n");
        let (_, err) = drain(s);
        assert_eq!(
            err,
            Some(TraceFileError::PortOutOfRange {
                line: 3,
                port: 2,
                ports: 2
            })
        );

        let s = reader("{\"ports\":2}\n{\"release\":4,\"src\":0,\"dst\":1}\n{\"release\":3,\"src\":1,\"dst\":0}\n");
        let (all, err) = drain(s);
        assert_eq!(all.len(), 1, "valid prefix replays");
        assert_eq!(
            err,
            Some(TraceFileError::UnsortedRelease {
                line: 3,
                prev: 4,
                next: 3
            })
        );

        let s = reader("{\"ports\":2}\n{\"release\":0,\"src\":0,\"dst\":1}\nnot json\n");
        let (_, err) = drain(s);
        assert!(matches!(err, Some(TraceFileError::Parse { line: 3, .. })));

        let s = reader("{\"ports\":2}\n{\"release\":0,\"src\":0,\"dst\":1}\n{\"ports\":2}\n");
        let (_, err) = drain(s);
        assert!(matches!(err, Some(TraceFileError::Parse { line: 3, .. })));
    }

    #[test]
    fn a_release_past_the_bound_is_cited_by_line() {
        use crate::line::{arrival_line, MAX_RELEASE};
        let line = |release| arrival_line(release, 0, 1);
        let text = format!("{{\"ports\":2}}\n{}\n{}\n", line(u64::MAX), line(u64::MAX));
        let (all, err) = drain(reader(&text));
        assert!(all.is_empty());
        let err = err.expect("u64::MAX is past the bound");
        assert_eq!(
            err,
            TraceFileError::ReleaseTooLate {
                line: 2,
                release: u64::MAX
            }
        );
        assert!(err.to_string().contains(&MAX_RELEASE.to_string()), "{err}");

        let text = format!("{{\"ports\":2}}\n{}\n", line(MAX_RELEASE));
        let (all, err) = drain(reader(&text));
        assert_eq!((all.len(), err), (1, None), "the bound itself is admitted");
    }

    #[test]
    fn lines_are_bounded_at_max_line_bytes() {
        // No newline, no end: the parent buffered this forever.
        let endless = std::io::BufReader::new(std::io::repeat(b' '));
        assert_eq!(
            StreamingTraceReader::from_reader(endless, "<endless>").unwrap_err(),
            TraceFileError::Parse {
                line: 1,
                msg: format!("line is longer than {MAX_LINE_BYTES} bytes"),
            }
        );

        // An arrival padded (JSON whitespace) so that line 2 is `len`
        // bytes, newline included.
        let padded = |len: usize| {
            let arrival = "{\"release\":0,\"src\":0,\"dst\":1}";
            let pad = " ".repeat(len - arrival.len() - 1);
            format!("{{\"ports\":2}}\n{arrival}{pad}\n{arrival}\n")
        };
        let (all, err) = drain(reader(&padded(MAX_LINE_BYTES)));
        assert_eq!((all.len(), err), (2, None), "a line at the cap is read");
        let (all, err) = drain(reader(&padded(MAX_LINE_BYTES + 1)));
        assert!(all.is_empty());
        assert_eq!(
            err,
            Some(TraceFileError::Parse {
                line: 2,
                msg: format!("line is longer than {MAX_LINE_BYTES} bytes"),
            })
        );
        // The cap counts bytes, so it may fall inside a character: still
        // "too long", not an encoding complaint.
        let wide = format!("{{\"ports\":2}}\n{}\n", "é".repeat(MAX_LINE_BYTES));
        let (_, err) = drain(reader(&wide));
        assert!(matches!(err, Some(TraceFileError::Parse { line: 2, .. })));
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_on_its_line() {
        let text: &[u8] = b"{\"ports\":2}\n{\"release\":0,\"src\":0,\"dst\":1}\n\xff\xfe\n";
        let (all, err) = drain(StreamingTraceReader::from_reader(text, "t.jsonl").unwrap());
        assert_eq!(all.len(), 1);
        assert_eq!(
            err,
            Some(TraceFileError::Parse {
                line: 3,
                msg: "not valid UTF-8".into()
            })
        );
    }

    /// Lines copied into the line buffer while reading `bytes` through a
    /// `capacity`-byte block.
    fn buffered_lines(bytes: &[u8], capacity: usize) -> usize {
        let reader = std::io::BufReader::with_capacity(capacity, bytes);
        let mut s = StreamingTraceReader::from_reader(reader, "<test>").unwrap();
        while s.next_arrival().is_some() {}
        assert_eq!(s.error_handle().get(), None);
        s.lines.buffered
    }

    #[test]
    fn a_written_trace_copies_only_the_header_and_the_lines_cut_by_a_block() {
        let mut bytes = Vec::new();
        let mut w = crate::TraceWriter::from_writer(&mut bytes, "<buf>", 16).unwrap();
        for i in 0..10_000u32 {
            w.write_arrival(u64::from(i / 8), i % 16, (i * 7) % 16)
                .unwrap();
        }
        w.finish().unwrap();

        // Line `[start, end)` (newline included) is cut by a block
        // boundary iff its first and last bytes fall in different blocks.
        let mut line_spans = Vec::new();
        let mut start = 0;
        for (at, _) in bytes.iter().enumerate().filter(|(_, &b)| b == b'\n') {
            line_spans.push((start, at + 1));
            start = at + 1;
        }
        let cut = |capacity: usize| {
            line_spans
                .iter()
                .skip(1) // the header goes through the line buffer anyway
                .filter(|&&(start, end)| start / capacity != (end - 1) / capacity)
                .count()
        };

        assert_eq!(line_spans.len(), 10_001);
        // 328 633 bytes: one 256 KiB boundary, and it cuts a line.
        assert_eq!((bytes.len(), cut(1 << 18)), (328_633, 1));
        assert_eq!(buffered_lines(&bytes, 1 << 18), 1 + 1);
        // 80 boundaries at 4 KiB; two fall between lines.
        assert_eq!(cut(1 << 12), 78);
        assert_eq!(buffered_lines(&bytes, 1 << 12), 1 + 78);
        // A reader that is its own block (`&[u8]`) copies the header only.
        assert_eq!(buffered_lines(&bytes, bytes.len()), 1);
    }

    #[test]
    fn horizon_truncates_and_stops_reading() {
        let text = "{\"ports\":3}\n{\"release\":0,\"src\":0,\"dst\":1}\n{\"release\":2,\"src\":1,\"dst\":2}\n{\"release\":7,\"src\":2,\"dst\":0}\n";
        let s = reader(text).with_horizon(Some(3));
        let (all, err) = drain(s);
        assert_eq!(err, None);
        assert_eq!(all.len(), 2, "horizon drops the release-7 arrival");
    }

    #[test]
    fn scan_summarizes_files() {
        let dir = std::env::temp_dir().join("fss-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.jsonl");
        std::fs::write(
            &path,
            "{\"ports\":5}\n{\"release\":1,\"src\":0,\"dst\":4}\n{\"release\":6,\"src\":2,\"dst\":3}\n",
        )
        .unwrap();
        let summary = scan(&path).unwrap();
        assert_eq!(
            summary,
            TraceSummary {
                ports: 5,
                flows: 2,
                horizon: 7
            }
        );
        let validated = StreamingTraceSource::open_validated(&path).unwrap();
        assert_eq!(validated.ports(), 5);

        std::fs::write(&path, "{\"ports\":5}\nbroken\n").unwrap();
        assert!(matches!(
            scan(&path),
            Err(TraceFileError::Parse { line: 2, .. })
        ));
        assert!(StreamingTraceSource::open_validated(&path).is_err());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            StreamingTraceSource::open("/no/such/trace.jsonl"),
            Err(TraceFileError::Io { .. })
        ));
    }
}
