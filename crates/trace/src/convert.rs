//! Coflow-CSV → arrival-trace conversion.
//!
//! The coflow literature publishes datacenter workloads (most famously
//! the Facebook/Hadoop trace) as per-coflow records: a release time, a
//! set of mapper ports, a set of reducer ports, and a byte volume
//! shuffled between them. The paper's model schedules *unit* flows on
//! an `m×m` switch, so ingesting such a workload takes two
//! deterministic steps, both done here in one O(1)-memory pass:
//!
//! - **Port folding** — cluster port `p` maps to switch port `p % m`.
//!   Deterministic, no sampling: the same CSV always yields the same
//!   trace.
//! - **Byte → unit-flow quantization** — a coflow's bytes are split
//!   evenly over its mapper×reducer pairs, and each pair's share is
//!   rounded up to `ceil(share / quantum)` unit flows (at least one, so
//!   no pair vanishes).
//!
//! ## CSV schema
//!
//! One coflow per line, five comma-separated fields:
//!
//! ```text
//! coflow_id, release_ms, mappers, reducers, bytes
//! 1,         0,          0|1,     5|6,      4194304
//! ```
//!
//! `mappers`/`reducers` are `|`-separated cluster port lists. A first
//! line whose id column is non-numeric is treated as the column-header
//! row and skipped. Rows must be nondecreasing in `release_ms`
//! (published coflow traces are), which is what lets conversion stream.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::line::TraceFileError;
use crate::stream::{Lines, TraceSummary};
use crate::writer::TraceWriter;

/// Knobs for [`convert_file`]. `Default` matches the
/// `flowsched trace convert` CLI defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertOptions {
    /// Switch size to fold cluster ports onto.
    pub ports: usize,
    /// Bytes represented by one unit flow.
    pub quantum_bytes: u64,
    /// Milliseconds per scheduling round (release quantization).
    pub ms_per_round: u64,
}

impl Default for ConvertOptions {
    fn default() -> Self {
        ConvertOptions {
            ports: 150,
            quantum_bytes: 1 << 20,
            ms_per_round: 1000,
        }
    }
}

/// Longest CSV row, terminator included, [`convert_stream`] reads.
///
/// A row is buffered whole, so without a bound a "CSV" that never sends
/// a newline is an allocation that never ends. The widest legitimate
/// row names every port of the largest switch ([`crate::MAX_PORTS`] =
/// 2048) once as a mapper and once as a reducer, each a ten-digit `u32`
/// and its `|`: 2 × 2048 × 11 = 45,056 bytes, plus three twenty-digit
/// `u64` columns and four commas. 64 KiB holds that.
pub(crate) const MAX_CSV_ROW_BYTES: usize = 1 << 16;

/// One parsed CSV row.
struct CoflowRow {
    release_ms: u64,
    mappers: Vec<u32>,
    reducers: Vec<u32>,
    bytes: u64,
}

fn parse_port_list(field: &str, what: &str) -> Result<Vec<u32>, String> {
    let ports: Result<Vec<u32>, _> = field.split('|').map(|p| p.trim().parse::<u32>()).collect();
    match ports {
        Ok(v) if v.is_empty() => Err(format!("empty {what} port list")),
        Ok(v) => Ok(v),
        Err(e) => Err(format!("bad {what} port list {field:?}: {e}")),
    }
}

fn parse_row(line: &str) -> Result<CoflowRow, String> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 5 {
        return Err(format!(
            "expected 5 fields (coflow,release_ms,mappers,reducers,bytes), got {}",
            fields.len()
        ));
    }
    fields[0]
        .parse::<u64>()
        .map_err(|e| format!("bad coflow id {:?}: {e}", fields[0]))?;
    let release_ms = fields[1]
        .parse::<u64>()
        .map_err(|e| format!("bad release_ms {:?}: {e}", fields[1]))?;
    let mappers = parse_port_list(fields[2], "mapper")?;
    let reducers = parse_port_list(fields[3], "reducer")?;
    let bytes = fields[4]
        .parse::<u64>()
        .map_err(|e| format!("bad bytes {:?}: {e}", fields[4]))?;
    Ok(CoflowRow {
        release_ms,
        mappers,
        reducers,
        bytes,
    })
}

/// Unit flows per mapper×reducer pair for a coflow of `bytes` total
/// over `pairs` pairs: even split, rounded up to the quantum, floored
/// at one so no pair disappears. A zero `quantum_bytes` is an error.
pub fn units_per_pair(bytes: u64, pairs: u64, quantum_bytes: u64) -> Result<u64, TraceFileError> {
    if quantum_bytes == 0 {
        return Err(TraceFileError::ZeroOption {
            option: "quantum_bytes",
        });
    }
    let per_pair = bytes.div_ceil(pairs.max(1));
    Ok(per_pair.div_ceil(quantum_bytes).max(1))
}

/// Every option is a count that must be at least 1.
fn check_options(opts: &ConvertOptions) -> Result<(), TraceFileError> {
    for (option, value) in [
        ("ports", opts.ports as u64),
        ("quantum_bytes", opts.quantum_bytes),
        ("ms_per_round", opts.ms_per_round),
    ] {
        if value == 0 {
            return Err(TraceFileError::ZeroOption { option });
        }
    }
    Ok(())
}

/// Stream a coflow CSV into an arrival-trace JSONL file.
///
/// One pass, O(largest row) memory (a row is `MAX_CSV_ROW_BYTES` at
/// most): each row expands to `mappers × reducers × units` arrival
/// lines (mapper-major, reducer-minor, units innermost — a fixed order,
/// so conversion is bit-for-bit deterministic). Errors cite the 1-based
/// CSV line; an option of 0 is an error before any file is opened.
pub fn convert_file(
    csv: impl AsRef<Path>,
    out: impl AsRef<Path>,
    opts: ConvertOptions,
) -> Result<TraceSummary, TraceFileError> {
    check_options(&opts)?;
    let csv = csv.as_ref();
    let label = csv.display().to_string();
    let file = File::open(csv).map_err(|e| TraceFileError::io(&label, e))?;
    let reader = BufReader::with_capacity(1 << 18, file);
    let writer = TraceWriter::create(out, opts.ports)?;
    convert_stream(reader, &label, writer, opts)
}

/// The reader→writer conversion core behind [`convert_file`], for
/// callers that already hold a CSV stream (the bench registry converts
/// the checked-in sample into memory through this). The `writer` must
/// declare `opts.ports` ports.
pub fn convert_stream<R: BufRead, W: std::io::Write>(
    reader: R,
    label: &str,
    mut writer: TraceWriter<W>,
    opts: ConvertOptions,
) -> Result<TraceSummary, TraceFileError> {
    check_options(&opts)?;
    debug_assert_eq!(writer.ports(), opts.ports);
    let m = opts.ports as u32;

    let mut prev_ms: Option<u64> = None;
    let mut lines = Lines::new(reader, label, MAX_CSV_ROW_BYTES);
    while let Some((line_no, line)) = lines.next_line()? {
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            continue;
        }
        let row = match parse_row(trimmed) {
            Ok(row) => row,
            Err(msg) => {
                // A first line whose *id column* is non-numeric is the
                // column-header row; a numeric id with other problems
                // is a genuinely bad data row.
                let non_numeric_id = trimmed
                    .split(',')
                    .next()
                    .is_some_and(|f| f.trim().parse::<u64>().is_err());
                if prev_ms.is_none() && line_no == 1 && non_numeric_id {
                    continue;
                }
                return Err(TraceFileError::Parse { line: line_no, msg });
            }
        };
        if let Some(prev) = prev_ms {
            if row.release_ms < prev {
                return Err(TraceFileError::Parse {
                    line: line_no,
                    msg: format!(
                        "release_ms {} after {prev} (coflow rows must be sorted by release)",
                        row.release_ms
                    ),
                });
            }
        }
        prev_ms = Some(row.release_ms);

        let release = row.release_ms / opts.ms_per_round;
        let pairs = (row.mappers.len() * row.reducers.len()) as u64;
        let units = units_per_pair(row.bytes, pairs, opts.quantum_bytes)?;
        for &mp in &row.mappers {
            let src = mp % m;
            for &rp in &row.reducers {
                let dst = rp % m;
                for _ in 0..units {
                    writer
                        .write_arrival(release, src, dst)
                        .map_err(|e| match e {
                            // Re-cite writer-side violations against the CSV
                            // line that produced them.
                            TraceFileError::UnsortedRelease { prev, next, .. } => {
                                TraceFileError::UnsortedRelease {
                                    line: line_no,
                                    prev,
                                    next,
                                }
                            }
                            TraceFileError::ReleaseTooLate { release, .. } => {
                                TraceFileError::ReleaseTooLate {
                                    line: line_no,
                                    release,
                                }
                            }
                            other => other,
                        })?;
                }
            }
        }
    }
    if prev_ms.is_none() {
        return Err(TraceFileError::Parse {
            line: 0,
            msg: "no coflow rows in CSV".into(),
        });
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::scan_with;

    fn dir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join("fss-trace-convert-tests");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn quantization_floors_at_one_unit_flow() {
        let units = |bytes, pairs| units_per_pair(bytes, pairs, 1 << 20).unwrap();
        assert_eq!(units(0, 4), 1);
        assert_eq!(units(1 << 20, 1), 1);
        assert_eq!(units((1 << 20) + 1, 1), 2);
        assert_eq!(units(4 << 20, 4), 1);
        assert_eq!(units(9 << 20, 4), 3);
    }

    fn zero(option: &'static str) -> TraceFileError {
        TraceFileError::ZeroOption { option }
    }

    #[test]
    fn a_zero_quantum_is_an_error_naming_the_field() {
        let err = units_per_pair(4096, 1, 0).unwrap_err();
        assert_eq!(err, zero("quantum_bytes"));
        assert_eq!(err.to_string(), "quantum_bytes must be at least 1");
        let err = convert_one_row(ConvertOptions {
            quantum_bytes: 0,
            ..ConvertOptions::default()
        });
        assert_eq!(err, zero("quantum_bytes"));
    }

    #[test]
    fn a_zero_round_length_is_an_error_naming_the_field() {
        let err = convert_one_row(ConvertOptions {
            ms_per_round: 0,
            ..ConvertOptions::default()
        });
        assert_eq!(err, zero("ms_per_round"));
        let err = convert_one_row(ConvertOptions {
            ports: 0,
            ..ConvertOptions::default()
        });
        assert_eq!(err, zero("ports"));
    }

    /// `convert_stream` on a one-row CSV under `opts`, which must fail;
    /// the error.
    fn convert_one_row(opts: ConvertOptions) -> TraceFileError {
        let mut jsonl = Vec::new();
        let writer = TraceWriter::from_writer(&mut jsonl, "csv", opts.ports.max(1)).unwrap();
        let csv = std::io::Cursor::new("1,0,0,1,4096\n");
        convert_stream(csv, "csv", writer, opts).unwrap_err()
    }

    #[test]
    fn converts_with_header_folding_and_quantization() {
        let csv = dir().join("basic.csv");
        let out = dir().join("basic.jsonl");
        std::fs::write(
            &csv,
            "coflow,release_ms,mappers,reducers,bytes\n\
             1,0,0|1,2|3,4194304\n\
             2,2500,9,6,1048577\n",
        )
        .unwrap();
        let summary = convert_file(
            &csv,
            &out,
            ConvertOptions {
                ports: 4,
                quantum_bytes: 1 << 20,
                ms_per_round: 1000,
            },
        )
        .unwrap();
        // Coflow 1: 4 MiB over 4 pairs = 1 unit each → 4 flows at round 0.
        // Coflow 2: 1 MiB + 1 over 1 pair = 2 units, round 2, ports 9%4=1, 6%4=2.
        assert_eq!(summary.ports, 4);
        assert_eq!(summary.flows, 6);
        assert_eq!(summary.horizon, 3);
        let mut seen = Vec::new();
        scan_with(&out, |a| seen.push((a.release, a.src, a.dst))).unwrap();
        assert_eq!(
            seen,
            vec![
                (0, 0, 2),
                (0, 0, 3),
                (0, 1, 2),
                (0, 1, 3),
                (2, 1, 2),
                (2, 1, 2)
            ]
        );
    }

    #[test]
    fn conversion_is_deterministic() {
        let csv = dir().join("det.csv");
        let a = dir().join("det-a.jsonl");
        let b = dir().join("det-b.jsonl");
        std::fs::write(&csv, "1,0,0|5|7,2|3,8388608\n2,9000,4,1|6,123\n").unwrap();
        let opts = ConvertOptions {
            ports: 6,
            ..ConvertOptions::default()
        };
        convert_file(&csv, &a, opts).unwrap();
        convert_file(&csv, &b, opts).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn errors_cite_csv_lines() {
        let csv = dir().join("bad.csv");
        let out = dir().join("bad.jsonl");

        std::fs::write(&csv, "1,0,0,1,10\n2,5,oops,1,10\n").unwrap();
        let err = convert_file(&csv, &out, ConvertOptions::default()).unwrap_err();
        assert!(
            matches!(err, TraceFileError::Parse { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("mapper"), "{err}");

        std::fs::write(&csv, "1,5000,0,1,10\n2,4000,0,1,10\n").unwrap();
        let err = convert_file(&csv, &out, ConvertOptions::default()).unwrap_err();
        assert!(
            matches!(err, TraceFileError::Parse { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("sorted"), "{err}");

        std::fs::write(&csv, "coflow,release_ms,mappers,reducers,bytes\n").unwrap();
        let err = convert_file(&csv, &out, ConvertOptions::default()).unwrap_err();
        assert!(err.to_string().contains("no coflow rows"), "{err}");

        std::fs::write(&csv, "1,0,0,1\n").unwrap();
        let err = convert_file(&csv, &out, ConvertOptions::default()).unwrap_err();
        assert!(err.to_string().contains("expected 5 fields"), "{err}");
    }

    #[test]
    fn rows_are_bounded_at_max_csv_row_bytes() {
        let convert = |csv: &mut dyn BufRead| {
            let opts = ConvertOptions::default();
            let writer = TraceWriter::from_writer(std::io::sink(), "<sink>", opts.ports).unwrap();
            convert_stream(csv, "<csv>", writer, opts)
        };
        let too_long = |line| TraceFileError::Parse {
            line,
            msg: format!("line is longer than {MAX_CSV_ROW_BYTES} bytes"),
        };
        // No newline, no end: the parent buffered this until it died.
        let mut endless = BufReader::new(std::io::repeat(b'x'));
        assert_eq!(convert(&mut endless).unwrap_err(), too_long(1));

        // A data row padded (fields are trimmed) so that line 2 is `len`
        // bytes, newline included.
        let padded = |len: usize| {
            let row = "2,1000,0|1,2,1";
            format!("1,0,0,1,1\n{row}{}\n", " ".repeat(len - row.len() - 1))
        };
        let at_cap = convert(&mut padded(MAX_CSV_ROW_BYTES).as_bytes()).unwrap();
        assert_eq!(at_cap.flows, 3, "a row at the cap converts");
        let over = convert(&mut padded(MAX_CSV_ROW_BYTES + 1).as_bytes());
        assert_eq!(over.unwrap_err(), too_long(2));
    }

    #[test]
    fn a_row_that_is_not_utf8_is_cited_by_line() {
        let opts = ConvertOptions::default();
        let writer = TraceWriter::from_writer(std::io::sink(), "<sink>", opts.ports).unwrap();
        let csv: &[u8] = b"1,0,0,1,10\n2,5,\xff,1,10\n";
        assert_eq!(
            convert_stream(csv, "<csv>", writer, opts).unwrap_err(),
            TraceFileError::Parse {
                line: 2,
                msg: "not valid UTF-8".into()
            }
        );
    }
}
