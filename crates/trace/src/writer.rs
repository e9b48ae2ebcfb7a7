//! Streaming trace emission: header + canonical lines, validated as
//! they are written.
//!
//! [`TraceWriter`] is the single sink the generator, converter, morph
//! pipeline and `fss_sim::ArrivalTrace::save` all write through. It
//! enforces on the way *out* the rule the reader enforces on the way in
//! (the same [`ArrivalCheck`]: port range and nondecreasing releases,
//! cited by the on-disk 1-based line number), so any file it produces
//! is guaranteed to load without error.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::line::{header_line, push_arrival_line, ArrivalCheck, TraceFileError};
use crate::stream::TraceSummary;

/// A validating, buffered writer of arrival-trace JSONL.
pub struct TraceWriter<W: Write> {
    out: W,
    /// The line being written, newline included (reused).
    line: Vec<u8>,
    label: String,
    check: ArrivalCheck,
    /// 1-based number of the line about to be written (header = 1).
    next_line: usize,
    flows: u64,
    horizon: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Create (truncate) `path` and write the `{"ports":N}` header.
    pub fn create(
        path: impl AsRef<Path>,
        ports: usize,
    ) -> Result<TraceWriter<BufWriter<File>>, TraceFileError> {
        let path = path.as_ref();
        let label = path.display().to_string();
        let file = File::create(path).map_err(|e| TraceFileError::io(&label, e))?;
        TraceWriter::from_writer(BufWriter::with_capacity(1 << 18, file), label, ports)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap any writer; emits the header immediately. `label` names the
    /// sink in errors.
    pub fn from_writer(
        mut out: W,
        label: impl Into<String>,
        ports: usize,
    ) -> Result<TraceWriter<W>, TraceFileError> {
        let label = label.into();
        if ports == 0 {
            return Err(TraceFileError::Parse {
                line: 1,
                msg: "header declares zero ports".into(),
            });
        }
        let mut line = header_line(ports).into_bytes();
        line.push(b'\n');
        out.write_all(&line)
            .map_err(|e| TraceFileError::io(&label, e))?;
        Ok(TraceWriter {
            out,
            line,
            label,
            check: ArrivalCheck::new(ports),
            next_line: 2,
            flows: 0,
            horizon: 0,
        })
    }

    /// Switch size this writer's header declared.
    pub(crate) fn ports(&self) -> usize {
        self.check.ports()
    }

    /// Append one arrival line, enforcing the reader-side invariants.
    pub fn write_arrival(
        &mut self,
        release: u64,
        src: u32,
        dst: u32,
    ) -> Result<(), TraceFileError> {
        self.check.admit(self.next_line, release, src, dst)?;
        self.line.clear();
        push_arrival_line(&mut self.line, release, src, dst);
        self.line.push(b'\n');
        self.out
            .write_all(&self.line)
            .map_err(|e| TraceFileError::io(&self.label, e))?;
        self.horizon = release + 1;
        self.flows += 1;
        self.next_line += 1;
        Ok(())
    }

    /// Flush and return what was written.
    pub fn finish(mut self) -> Result<TraceSummary, TraceFileError> {
        self.out
            .flush()
            .map_err(|e| TraceFileError::io(&self.label, e))?;
        Ok(TraceSummary {
            ports: self.ports(),
            flows: self.flows,
            horizon: self.horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamingTraceReader;
    use fss_engine::FlowSource;
    use std::io::Cursor;

    #[test]
    fn written_traces_read_back_verbatim() {
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::from_writer(&mut buf, "<buf>", 4).unwrap();
            w.write_arrival(0, 0, 3).unwrap();
            w.write_arrival(0, 1, 2).unwrap();
            w.write_arrival(5, 3, 0).unwrap();
            let s = w.finish().unwrap();
            assert_eq!(s.flows, 3);
            assert_eq!(s.horizon, 6);
        }
        let mut r =
            StreamingTraceReader::from_reader(Cursor::new(buf.as_slice()), "<buf>").unwrap();
        assert_eq!(r.ports(), 4);
        let mut n = 0;
        while let Some(a) = r.next_arrival() {
            assert!((a.src as usize) < 4 && (a.dst as usize) < 4);
            n += 1;
        }
        assert_eq!(r.error_handle().get(), None);
        assert_eq!(n, 3);
    }

    #[test]
    fn writer_rejects_what_readers_would_reject() {
        assert!(matches!(
            TraceWriter::from_writer(Vec::new(), "<buf>", 0),
            Err(TraceFileError::Parse { line: 1, .. })
        ));

        let mut w = TraceWriter::from_writer(Vec::new(), "<buf>", 2).unwrap();
        assert_eq!(
            w.write_arrival(0, 2, 0),
            Err(TraceFileError::PortOutOfRange {
                line: 2,
                port: 2,
                ports: 2
            })
        );
        w.write_arrival(4, 0, 1).unwrap();
        assert_eq!(
            w.write_arrival(3, 1, 0),
            Err(TraceFileError::UnsortedRelease {
                line: 3,
                prev: 4,
                next: 3
            })
        );
    }
}
