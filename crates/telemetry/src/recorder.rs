//! The flight recorder: a fixed-capacity, lock-free ring buffer of the
//! most recent span records.
//!
//! Post-mortem observability for a long-running daemon: memory is bounded
//! (capacity × [`SLOT_BYTES`] bytes, allocated once), writers never block
//! or allocate, and old records are silently overwritten. On a drain or
//! an internal panic the ring is dumped, giving the "what were the last
//! N things this process did" view a metrics snapshot cannot.
//!
//! # Design
//!
//! The crate forbids `unsafe`, so the ring is built from atomics alone:
//! each slot is a per-slot seqlock of `AtomicU64` words. A writer claims
//! a globally-ordered index with one `fetch_add`, marks the slot's
//! sequence odd, stores the data words, then publishes the even sequence
//! `2·index + 2`. A reader accepts a slot only when the sequence reads as
//! the expected even value before *and* after the data words, and a mixed
//! checksum over the words (keyed by the index) validates. Torn or
//! in-progress records are skipped, never returned. Under a single writer
//! thread the dump order is exactly write order (oldest → newest).

use crate::trace::{splitmix64, TraceContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Maximum name bytes preserved per record (longer names truncate).
pub const NAME_BYTES: usize = 40;
const NAME_WORDS: usize = NAME_BYTES / 8;
/// Data words per slot: trace, span, start, duration, meta, name, checksum.
const DATA_WORDS: usize = 5 + NAME_WORDS + 1;
/// Bytes one slot occupies (sequence word + data words).
pub const SLOT_BYTES: usize = (1 + DATA_WORDS) * 8;

/// Default ring capacity (records). 2048 × 96 B = 192 KiB resident.
pub const DEFAULT_CAPACITY: usize = 2048;

/// What a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed span (has a duration).
    Span,
}

impl RecordKind {
    fn to_byte(self) -> u64 {
        match self {
            RecordKind::Span => 1,
        }
    }

    fn from_byte(b: u64) -> Option<Self> {
        match b {
            1 => Some(RecordKind::Span),
            _ => None,
        }
    }
}

/// One decoded flight-recorder record.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// What the record describes.
    pub kind: RecordKind,
    /// Owning request's trace id (0 = recorded outside any trace).
    pub trace_id: u64,
    /// Span id within the trace (0 when untraced).
    pub span_id: u64,
    /// Nanoseconds since the process epoch (first recorder use).
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Span path, truncated to [`NAME_BYTES`].
    pub name: String,
}

struct Slot {
    /// 0 = never written; `2i+1` = write of index `i` in progress;
    /// `2i+2` = write of index `i` complete.
    seq: AtomicU64,
    words: [AtomicU64; DATA_WORDS],
}

/// Fixed-capacity overwrite-oldest record ring. See module docs.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

/// Checksum over a slot's data words, keyed by the write index so a
/// record from generation g never validates as generation g+capacity.
fn checksum(words: &[u64], index: u64) -> u64 {
    let mut acc = index;
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (not bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records ejected by overwrite so far.
    pub fn overwritten(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Writes one record; never blocks, never allocates.
    pub fn record(
        &self,
        kind: RecordKind,
        trace: Option<TraceContext>,
        start_ns: u64,
        dur_ns: u64,
        name: &str,
    ) {
        let index = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let (trace_id, span_id) = trace.map_or((0, 0), |c| (c.trace_id, c.span_id));

        let mut name_words = [0u64; NAME_WORDS];
        let take = floor_char_boundary(name, NAME_BYTES);
        let bytes = &name.as_bytes()[..take];
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            name_words[i] = u64::from_le_bytes(w);
        }

        let mut words = [0u64; DATA_WORDS];
        words[0] = trace_id;
        words[1] = span_id;
        words[2] = start_ns;
        words[3] = dur_ns;
        words[4] = kind.to_byte() | ((take as u64) << 8);
        words[5..5 + NAME_WORDS].copy_from_slice(&name_words);
        words[DATA_WORDS - 1] = checksum(&words[..DATA_WORDS - 1], index);

        slot.seq.store(index * 2 + 1, Ordering::Release);
        for (dst, &w) in slot.words.iter().zip(&words) {
            dst.store(w, Ordering::Release);
        }
        slot.seq.store(index * 2 + 2, Ordering::Release);
    }

    /// Convenience: a span record, pulling the trace from the thread.
    pub fn record_span(&self, path: &str, start_ns: u64, dur_ns: u64) {
        self.record(
            RecordKind::Span,
            crate::trace::current(),
            start_ns,
            dur_ns,
            path,
        );
    }

    fn read_index(&self, index: u64) -> Option<FlightRecord> {
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let want = index * 2 + 2;
        if slot.seq.load(Ordering::Acquire) != want {
            return None; // in progress, or already overwritten
        }
        let mut words = [0u64; DATA_WORDS];
        for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
            *dst = src.load(Ordering::Acquire);
        }
        if slot.seq.load(Ordering::Acquire) != want
            || checksum(&words[..DATA_WORDS - 1], index) != words[DATA_WORDS - 1]
        {
            return None; // torn by a wrapping writer
        }
        let kind = RecordKind::from_byte(words[4] & 0xFF)?;
        let len = ((words[4] >> 8) as usize).min(NAME_BYTES);
        let mut name_bytes = [0u8; NAME_BYTES];
        for (i, chunk) in name_bytes.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&words[5 + i].to_le_bytes());
        }
        Some(FlightRecord {
            kind,
            trace_id: words[0],
            span_id: words[1],
            start_ns: words[2],
            dur_ns: words[3],
            name: String::from_utf8_lossy(&name_bytes[..len]).into_owned(),
        })
    }

    /// Snapshot of the retained records, oldest first. Slots being
    /// written (or overwritten) while the dump runs are skipped rather
    /// than returned torn.
    pub fn dump(&self) -> Vec<FlightRecord> {
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(self.slots.len() as u64);
        (lo..head).filter_map(|i| self.read_index(i)).collect()
    }
}

/// Largest byte index `<= at` that is a char boundary of `s`.
fn floor_char_boundary(s: &str, at: usize) -> usize {
    if at >= s.len() {
        return s.len();
    }
    let mut i = at;
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process telemetry epoch (first call wins).
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder every span writes into.
pub fn flight_recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

/// Renders records as aligned text lines (the drain/panic dump format):
/// `+offset kind trace-id duration name`.
pub fn render_records(records: &[FlightRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in records {
        let kind = match r.kind {
            RecordKind::Span => "span ",
        };
        let _ = writeln!(
            out,
            "  +{:>12.6}s {kind} trace={:016x} {:>12}ns {}",
            r.start_ns as f64 / 1e9,
            r.trace_id,
            r.dur_ns,
            r.name,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceIdGen;

    #[test]
    fn roundtrips_one_record() {
        let rec = FlightRecorder::new(8);
        let ctx = TraceIdGen::new(5).next();
        rec.record(RecordKind::Span, Some(ctx), 100, 250, "compress/codec");
        let dump = rec.dump();
        assert_eq!(dump.len(), 1);
        let r = &dump[0];
        assert_eq!(r.kind, RecordKind::Span);
        assert_eq!(r.trace_id, ctx.trace_id);
        assert_eq!(r.span_id, ctx.span_id);
        assert_eq!((r.start_ns, r.dur_ns), (100, 250));
        assert_eq!(r.name, "compress/codec");
    }

    #[test]
    fn overwrites_oldest_and_stays_bounded() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(RecordKind::Span, None, i, 0, "e");
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        let starts: Vec<u64> = dump.iter().map(|r| r.start_ns).collect();
        assert_eq!(starts, [6, 7, 8, 9]);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.overwritten(), 6);
    }

    #[test]
    fn long_names_truncate_on_char_boundaries() {
        let rec = FlightRecorder::new(2);
        let long = "a".repeat(39) + "é"; // the 2-byte char straddles the cap
        rec.record(RecordKind::Span, None, 0, 0, &long);
        let dump = rec.dump();
        assert_eq!(dump[0].name, "a".repeat(39));
    }

    #[test]
    fn render_is_one_line_per_record() {
        let rec = FlightRecorder::new(4);
        rec.record(RecordKind::Span, None, 1_500, 42, "x");
        rec.record(RecordKind::Span, None, 1_600, 7, "span.target");
        let text = render_records(&rec.dump());
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("span.target"));
    }
}
