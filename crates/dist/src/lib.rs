//! # fss-dist — the bounded line reader of `flowsched serve`
//!
//! What is left of the distributed bench runner after PR 22 deleted its
//! coordinator/worker protocol (one process runs a bench; `bench
//! --resume` lives in `fss_bench::run_bench`): [`framing`], the capped
//! JSONL line reader on `serve`'s ingest path. The crate, and the
//! manifest edges nothing here uses any more, leave with ROADMAP item
//! 1's lockfile refresh, which moves the reader to the one line
//! reader's home.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod framing;
