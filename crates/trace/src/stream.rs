//! Streaming replay of arrival-trace files, one line at a time.
//!
//! [`StreamingTraceSource`] is a [`FlowSource`] over an on-disk JSONL
//! arrival trace that never materializes the file: all it holds is the
//! `BufReader`'s block and one line buffer (itself capped at
//! [`MAX_LINE_BYTES`]), so a 10⁸-flow trace replays at the same peak
//! memory as a 10³-flow one. Each [`FlowSource::next_arrival`] call
//! reads, parses and checks one line — header shape, port range, the
//! sorted-release [`FlowSource`] contract, 1-based line numbers — so a
//! malformed file is rejected at its first offending line. This is the
//! only trace reader in the workspace: `fss_sim::ArrivalTrace::from_jsonl`
//! drains one into a `Vec`.
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

use crate::line::{parse_trace_event, ArrivalCheck, TraceEvent, TraceFileError, MAX_LINE_BYTES};

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
/// crate's one line reader (trace JSONL here, coflow CSV in `convert`).
#[derive(Debug)]
pub(crate) struct Lines<R> {
    reader: R,
    label: String,
    /// Longest line, terminator included, the stream may contain.
    cap: usize,
    /// 1-based number of the last line consumed from the reader.
    line_no: usize,
    buf: String,
}

impl<R: BufRead> Lines<R> {
    /// Lines of `reader` (named `label` in I/O errors), none longer than
    /// `cap` bytes.
    pub(crate) fn new(reader: R, label: impl Into<String>, cap: usize) -> Lines<R> {
        Lines {
            reader,
            label: label.into(),
            cap,
            line_no: 0,
            buf: String::new(),
        }
    }

    /// The next non-blank line (terminator stripped) and its 1-based
    /// number; `Ok(None)` at the end of the stream.
    pub(crate) fn next(&mut self) -> Result<Option<(usize, &str)>, TraceFileError> {
        loop {
            self.buf.clear();
            // One byte past the cap tells a line over it from one at it;
            // the rest of an over-long line is never buffered.
            let mut capped = (&mut self.reader).take(self.cap as u64 + 1);
            let read = capped.read_line(&mut self.buf);
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
        let Some((line, text)) = self.next()? else {
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
        let Some((line, text)) = self.lines.next()? else {
            return Ok(None);
        };
        match parse_trace_event(text) {
            Ok(TraceEvent::Arrival { release, src, dst }) => {
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
            Ok(TraceEvent::Header { .. }) => Err(TraceFileError::Parse {
                line,
                msg: "unexpected second header".into(),
            }),
            Err(msg) => Err(TraceFileError::Parse { line, msg }),
        }
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
