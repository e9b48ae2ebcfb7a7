//! Property tests for arrival-trace text, in and out.
//!
//! `fss-trace` holds the only trace reader and the only trace writer;
//! [`ArrivalTrace`] loads by draining the one and saves through the
//! other. Over valid traces, decorated ones (blank lines, CRLF, no
//! final newline) and byte-mutated ones, loading must agree with the
//! reader driven by hand — the same arrivals, or the same first error,
//! never a panic and never a silently shortened trace — whatever size
//! of block the reader sees the text through, and what the writer
//! emits must read back verbatim.

use std::io::{BufRead, BufReader};

use fss_core::Arrival;
use fss_engine::FlowSource;
use fss_sim::{ArrivalTrace, ScenarioError};
use fss_trace::{StreamingTraceReader, TraceFileError};
use proptest::prelude::*;

/// How a case's text departs from what the writer would emit.
#[derive(Debug, Clone)]
struct Decoration {
    blank_lines: bool,
    crlf: bool,
    final_newline: bool,
    /// `(position, operation, byte)` edits, applied in order.
    edits: Vec<(usize, u8, u8)>,
}

impl Decoration {
    /// Exactly what the writer emits.
    const NONE: Decoration = Decoration {
        blank_lines: false,
        crlf: false,
        final_newline: true,
        edits: Vec::new(),
    };
}

/// Strategy: a port count and a sorted arrival list on it.
fn trace_case() -> impl Strategy<Value = (usize, Vec<Arrival>)> {
    (
        1usize..=5,
        proptest::collection::vec((0u64..12, 0u32..8, 0u32..8), 0..40),
    )
        .prop_map(|(m, mut raw)| {
            raw.sort_by_key(|&(release, _, _)| release);
            let arrivals = raw
                .into_iter()
                .enumerate()
                .map(|(i, (release, src, dst))| Arrival {
                    id: i as u64,
                    src: src % m as u32,
                    dst: dst % m as u32,
                    release,
                })
                .collect();
            (m, arrivals)
        })
}

/// Strategy: line decoration plus up to `max_edits` single-byte edits:
/// insert / delete / overwrite with printable ASCII or a newline, or
/// change a digit (the edit that moves a port out of range or a release
/// out of order instead of breaking the JSON).
fn decoration(max_edits: usize) -> impl Strategy<Value = Decoration> {
    let byte = prop_oneof![0x20u8..0x7f, Just(b'\n')];
    (
        0u8..2,
        0u8..2,
        0u8..2,
        proptest::collection::vec((0usize..4096, 0u8..5, byte), 0..=max_edits),
    )
        .prop_map(|(blank, crlf, newline, edits)| Decoration {
            blank_lines: blank == 1,
            crlf: crlf == 1,
            final_newline: newline == 1,
            edits,
        })
}

fn render(m: usize, arrivals: &[Arrival], d: &Decoration) -> String {
    let eol = if d.crlf { "\r\n" } else { "\n" };
    let mut text = String::new();
    if d.blank_lines {
        text.push_str(eol);
    }
    text.push_str(&fss_trace::header_line(m));
    text.push_str(eol);
    for (i, a) in arrivals.iter().enumerate() {
        if d.blank_lines && i % 3 == 0 {
            text.push_str("   ");
            text.push_str(eol);
        }
        text.push_str(&fss_trace::arrival_line(a.release, a.src, a.dst));
        text.push_str(eol);
    }
    if !d.final_newline {
        text.truncate(text.trim_end_matches(['\r', '\n']).len());
    }
    let mut bytes = text.into_bytes();
    for &(at, op, byte) in &d.edits {
        let at = at % (bytes.len() + 1);
        match op {
            0 => bytes.insert(at, byte),
            1 if at < bytes.len() => drop(bytes.remove(at)),
            2 if at < bytes.len() => bytes[at] = byte,
            _ => {
                let digit = bytes.iter().skip(at).position(u8::is_ascii_digit);
                if let Some(offset) = digit {
                    bytes[at + offset] = b'0' + byte % 10;
                }
            }
        }
    }
    String::from_utf8(bytes).expect("ASCII in, ASCII edits")
}

type Outcome = Result<(usize, Vec<Arrival>), TraceFileError>;

/// The reader, driven by hand: everything it yields, unless it stopped
/// on an error.
fn read_by_hand(text: &str) -> Outcome {
    read_from(text.as_bytes())
}

/// [`read_by_hand`] over any buffered reader of the text.
fn read_from(reader: impl BufRead) -> Outcome {
    let mut reader = StreamingTraceReader::from_reader(reader, "<jsonl>")?;
    let arrivals = std::iter::from_fn(|| reader.next_arrival()).collect();
    match reader.error_handle().get() {
        Some(e) => Err(e),
        None => Ok((reader.ports(), arrivals)),
    }
}

fn load(text: &str) -> Outcome {
    match ArrivalTrace::from_jsonl(text) {
        Ok(trace) => Ok((trace.ports, trace.arrivals)),
        Err(ScenarioError::Trace(e)) => Err(e),
        Err(other) => panic!("loading raised a non-trace error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoration is invisible: the arrivals come back exactly, ids
    /// dense from 0, through the loader and the hand-driven reader both.
    /// The undecorated spelling is the writer's, so this is also the
    /// writer → reader round trip.
    #[test]
    fn decorated_traces_load_exactly((m, arrivals) in trace_case(), d in decoration(0)) {
        let text = render(m, &arrivals, &d);
        prop_assert_eq!(load(&text), Ok((m, arrivals.clone())), "{:?}", text);
        prop_assert_eq!(read_by_hand(&text), Ok((m, arrivals.clone())), "{:?}", text);
        let written = ArrivalTrace::new(m, arrivals.clone()).unwrap().to_jsonl();
        prop_assert_eq!(written, render(m, &arrivals, &Decoration::NONE));
    }

    /// Damage is diagnosed once: whatever a few stray bytes do to a
    /// trace, loading it reports what the reader reports — the same
    /// arrivals or the same first error — and what does load is a trace.
    #[test]
    fn mutated_traces_load_as_the_reader_reads((m, arrivals) in trace_case(), d in decoration(3)) {
        let text = render(m, &arrivals, &d);
        let loaded = load(&text);
        prop_assert_eq!(&loaded, &read_by_hand(&text), "{:?}", text);
        if let Ok((ports, arrivals)) = loaded {
            let in_range = |a: &Arrival| (a.src as usize) < ports && (a.dst as usize) < ports;
            prop_assert!(arrivals.iter().all(in_range), "{:?}", text);
            prop_assert!(arrivals.windows(2).all(|w| w[0].release <= w[1].release), "{:?}", text);
            prop_assert!(arrivals.iter().enumerate().all(|(i, a)| a.id == i as u64), "{:?}", text);
        }
    }

    /// The block is invisible: a line the reader parses in place (whole,
    /// canonical and newline-ended in the block) and a line it copies
    /// (everything else) read alike. At every block size from 1 byte
    /// (every line copied) to 80 (most lines in place), clean and
    /// damaged texts give what the whole text as one block gives — the
    /// same arrivals, or the same first error on the same line.
    #[test]
    fn every_block_split_reads_as_the_whole_text(
        (m, arrivals) in trace_case(),
        clean in decoration(0),
        damaged in decoration(3),
    ) {
        for d in [clean, damaged] {
            let text = render(m, &arrivals, &d);
            let whole = read_by_hand(&text);
            for capacity in 1..=80 {
                let blocks = BufReader::with_capacity(capacity, text.as_bytes());
                prop_assert_eq!(&read_from(blocks), &whole, "capacity {}: {:?}", capacity, text);
            }
        }
    }
}
