//! # fss-dist — an empty crate kept for a lockfile
//!
//! What is left of the distributed bench runner once its
//! coordinator/worker protocol was deleted (one process runs a bench;
//! `bench --resume` lives in `fss_bench::run_bench`). Its last module, the
//! capped line reader on `flowsched serve`'s ingest path, became
//! `fss_trace::Lines`, the workspace's one line reader. The crate holds
//! no code. It and the manifest edges to and from it stay only because
//! `perf/Cargo.lock` is built `--locked`; they leave with ROADMAP item
//! 1's lockfile refresh.

#![deny(missing_docs)]
#![warn(unreachable_pub)]
