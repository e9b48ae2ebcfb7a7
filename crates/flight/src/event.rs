//! The fixed-size span event every ring slot holds.
//!
//! Events are closed spans: they are recorded once, at the moment the
//! span ends, with both endpoints already known. That keeps the hot
//! path a handful of plain stores (no open-span bookkeeping shared
//! across threads) and makes the ring slot a POD value that packs into
//! six 64-bit words — see [`crate::ring`].

/// What a span measured. The first four variants mirror
/// `fss_telemetry::Stage` *in the same order* so stage activations map
/// by index; the rest are flight-only kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Arrival ingest (batching the source, pushing releases).
    Ingest = 0,
    /// Per-port queue updates (push/pop against the sharded queues).
    QueueUpdate = 1,
    /// Matching repair / policy selection for one round.
    MatchRepair = 2,
    /// Dispatch bookkeeping (response accounting, emit callbacks).
    Dispatch = 3,
    /// A blocking channel send. Decode-only: nothing records it, and
    /// spools written while the engine had a staged pipe carry it.
    ChanSend = 4,
    /// A blocking channel receive (decode-only, like [`SpanKind::ChanSend`]).
    ChanRecv = 5,
    /// One engine round, stamped with the round loop's round number.
    Round = 6,
    /// A whole serve session (client connect .. `Finish`).
    Session = 7,
    /// One bench cell execution (round = flat cell index).
    Cell = 8,
    /// A watchdog post-mortem marker written on a detected stall.
    Watchdog = 9,
}

/// Number of distinct span kinds.
pub const KIND_COUNT: usize = 10;

impl SpanKind {
    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; KIND_COUNT] = [
        SpanKind::Ingest,
        SpanKind::QueueUpdate,
        SpanKind::MatchRepair,
        SpanKind::Dispatch,
        SpanKind::ChanSend,
        SpanKind::ChanRecv,
        SpanKind::Round,
        SpanKind::Session,
        SpanKind::Cell,
        SpanKind::Watchdog,
    ];

    /// Stable lowercase name (used in the spool and Chrome export).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Ingest => "ingest",
            SpanKind::QueueUpdate => "queue_update",
            SpanKind::MatchRepair => "match_repair",
            SpanKind::Dispatch => "dispatch",
            SpanKind::ChanSend => "chan_send",
            SpanKind::ChanRecv => "chan_recv",
            SpanKind::Round => "round",
            SpanKind::Session => "session",
            SpanKind::Cell => "cell",
            SpanKind::Watchdog => "watchdog",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// Decode a discriminant (ring slots store the kind as a byte).
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }

    /// Chrome Trace `cat` field for this kind.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Ingest
            | SpanKind::QueueUpdate
            | SpanKind::MatchRepair
            | SpanKind::Dispatch => "stage",
            SpanKind::ChanSend | SpanKind::ChanRecv => "channel",
            SpanKind::Round => "round",
            SpanKind::Session | SpanKind::Cell => "scope",
            SpanKind::Watchdog => "watchdog",
        }
    }
}

/// One closed span. `t_start_ns`/`t_end_ns` are offsets on the
/// recorder's monotonic clock (ns since the recorder epoch); `thread`
/// is the recorder-assigned track id, `round` the engine round stamp
/// (kind-dependent: flat cell index for [`SpanKind::Cell`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique id (monotonic across the whole recorder).
    pub span_id: u64,
    /// Enclosing span id, `0` if none.
    pub parent: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Round stamp for causality (see field docs).
    pub round: u64,
    /// Start, ns since the recorder epoch.
    pub t_start_ns: u64,
    /// End, ns since the recorder epoch (always `> t_start_ns`).
    pub t_end_ns: u64,
    /// Recorder-assigned thread/track id.
    pub thread: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip_and_match_discriminants() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*k as u8 as usize, i);
            assert_eq!(SpanKind::from_u8(i as u8), Some(*k));
            assert_eq!(SpanKind::from_name(k.name()), Some(*k));
        }
        assert_eq!(SpanKind::from_u8(KIND_COUNT as u8), None);
        assert_eq!(SpanKind::from_name("nope"), None);
    }

    #[test]
    fn the_first_four_kinds_mirror_the_telemetry_stage_order() {
        // fss-telemetry maps Stage -> SpanKind by index; pin the order.
        assert_eq!(SpanKind::from_u8(0), Some(SpanKind::Ingest));
        assert_eq!(SpanKind::from_u8(1), Some(SpanKind::QueueUpdate));
        assert_eq!(SpanKind::from_u8(2), Some(SpanKind::MatchRepair));
        assert_eq!(SpanKind::from_u8(3), Some(SpanKind::Dispatch));
    }
}
