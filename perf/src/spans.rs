//! Harness-side spans: name, start, end, the span that caused it, and the
//! repetition it belongs to, recorded around every call the harness makes
//! into a layer. Kept in memory and written once, at exit, as Chrome-trace
//! JSON (load in `chrome://tracing` or Perfetto). Recording is on around
//! setup, verification and the traced pass and off in the untraced pass,
//! whose repetitions must be the same code whether or not the run traces;
//! with it off `begin`/`end` are one branch each.
//!
//! These are spans *from outside*: they bracket calls into the program.
//! Spans inside the program (`fss-flight`) are a later issue.

use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rep: u64,
}

/// An open span, to hand back to [`Spans::end`].
#[must_use]
pub struct Open(Option<usize>);

/// The in-memory span log.
pub struct Spans {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u64,
}

impl Spans {
    /// A log that records iff `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Switch recording on or off.
    pub fn record(&mut self, on: bool) {
        self.on = on;
    }

    /// Now, on the log's clock: for [`Spans::closed`].
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Start the next repetition: later spans carry a fresh id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(i);
        Open(Some(i))
    }

    /// Close the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            assert_eq!(self.stack.pop(), Some(i), "spans close innermost first");
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Log a span that is already over, under the innermost open one. For
    /// callers that must not allocate between its two ends (they read
    /// [`Spans::now_ns`] there and log afterwards).
    pub fn closed(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The log as Chrome Trace Format ("X" complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.rep
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_repetition() {
        let mut s = Spans::new(true);
        s.next_rep();
        let outer = s.begin("rep.run");
        let inner = s.begin("serve.blast");
        s.end(inner);
        s.end(outer);
        assert_eq!(s.len(), 2);
        let json = s.chrome_json();
        assert!(json.contains("\"name\":\"serve.blast\""));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0,\"rep\":1}"));
        assert!(json.contains("\"args\":{\"id\":0,\"parent\":null,\"rep\":1}"));
    }

    #[test]
    fn a_log_records_only_while_it_is_on() {
        let mut s = Spans::new(true);
        s.record(false);
        let o = s.begin("rep.run");
        s.closed("serve.boot", 1, 2);
        s.end(o);
        assert_eq!(s.len(), 0);
        s.record(true);
        let o = s.begin("rep.run");
        s.closed("serve.boot", 1, 2);
        s.end(o);
        assert_eq!(s.len(), 2);
        assert!(s
            .chrome_json()
            .contains("\"name\":\"serve.boot\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.001,\"dur\":0.001,\"args\":{\"id\":1,\"parent\":0,"));
    }
}
