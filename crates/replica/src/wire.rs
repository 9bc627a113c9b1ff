//! Wire encoding of shipped replication events.
//!
//! Every payload starts with the sender's **leadership generation**
//! (little-endian `u64`), then the sender's [`TraceContext`] (16 bytes,
//! all-zero when untraced — the field is always present so envelope sizes
//! never depend on whether tracing is enabled), followed by a one-byte
//! tag and the event body. The generation rides in every event so a
//! deposed primary's shipments are rejectable the moment a replica has
//! learned of a newer one — without waiting for the deposed node to
//! notice its own fencing. The trace context lets replica-side
//! replay/verification spans join the primary's request tree.
//!
//! A `Frame` body is byte-for-byte the WAL batch frame of
//! [`lsm_store::encode_frame`]: the shipped unit *is* the crash-atomicity
//! unit, checksummed encoding included. A primary encodes it straight from
//! the records it committed, without building a [`WireEvent`] first.

use elsm::replication::Announcement;
use lsm_store::{decode_frame, encode_frame_into, CompactionJob, Record, VlogGcJob};
use telemetry::TraceContext;

const TAG_FRAME: u8 = 1;
const TAG_FLUSH: u8 = 2;
const TAG_COMPACT: u8 = 3;
const TAG_ANNOUNCE: u8 = 4;
const TAG_PROMOTE: u8 = 5;
const TAG_VLOG_GC: u8 = 6;

/// One decoded replication shipment.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// A committed WAL batch frame to replay whole.
    Frame(Vec<Record>),
    /// "Flush now": the primary froze its memtable at this stream point
    /// (replayed *without* chasing compaction — the primary ships every
    /// job it ran as its own `Compact` event).
    Flush,
    /// "Run this job now": the strategy-deterministic description of one
    /// compaction job the primary installed, replayed bit-identically
    /// instead of letting the replica re-decide compaction.
    Compact(CompactionJob),
    /// A signed version-install announcement (the per-epoch cross-check).
    Announce(Announcement),
    /// A promotion: the generation in the header is the *new* generation,
    /// which replicas accept only after checking the fencing counter.
    Promote,
    /// "Collect these value-log files now": the primary's value-log GC —
    /// a merge job plus the victim file set, replayed bit-identically so
    /// both logs rewrite surviving entries in the same order and end with
    /// the same file sets.
    VlogGc(VlogGcJob),
}

/// Encodes an event under `generation`, carrying the sender's `trace`
/// context ([`TraceContext::NONE`] when untraced; see the module docs).
pub fn encode_event(generation: u64, trace: TraceContext, event: &WireEvent) -> Vec<u8> {
    let mut out = header(generation, trace, 8);
    match event {
        WireEvent::Frame(records) => {
            out.push(TAG_FRAME);
            encode_frame_into(records, &mut out);
        }
        WireEvent::Flush => out.push(TAG_FLUSH),
        WireEvent::Compact(job) => {
            out.push(TAG_COMPACT);
            job.encode(&mut out);
        }
        WireEvent::Announce(a) => {
            out.push(TAG_ANNOUNCE);
            out.extend_from_slice(&a.encode());
        }
        WireEvent::Promote => out.push(TAG_PROMOTE),
        WireEvent::VlogGc(gc) => {
            out.push(TAG_VLOG_GC);
            gc.encode(&mut out);
        }
    }
    out
}

/// What [`encode_event`] makes of `WireEvent::Frame(records.to_vec())`,
/// encoded straight from the committed records into a payload sized once.
pub(crate) fn encode_frame_event(
    generation: u64,
    trace: TraceContext,
    records: &[Record],
) -> Vec<u8> {
    let body: usize = records.iter().map(|r| r.key.len() + r.value.len() + 18).sum();
    let mut out = header(generation, trace, 1 + 8 + 10 + body);
    out.push(TAG_FRAME);
    encode_frame_into(records, &mut out);
    out
}

/// The generation and trace context every payload starts with, in a
/// buffer with room for `rest` more bytes.
fn header(generation: u64, trace: TraceContext, rest: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + rest);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&trace.encode());
    out
}

/// Decodes a payload back into `(generation, trace, event)`. `None`
/// means a malformed shipment (the caller treats it as channel tampering
/// — an authenticated sender never produces one).
pub fn decode_event(payload: &[u8]) -> Option<(u64, TraceContext, WireEvent)> {
    let generation = u64::from_le_bytes(payload.get(0..8)?.try_into().ok()?);
    let trace = TraceContext::decode(payload.get(8..24)?)?;
    let tag = *payload.get(24)?;
    let body = &payload[25..];
    let event = match tag {
        TAG_FRAME => WireEvent::Frame(decode_frame(body)?),
        TAG_FLUSH if body.is_empty() => WireEvent::Flush,
        TAG_COMPACT => WireEvent::Compact(CompactionJob::decode(body)?),
        TAG_ANNOUNCE => WireEvent::Announce(Announcement::decode(body)?),
        TAG_PROMOTE if body.is_empty() => WireEvent::Promote,
        TAG_VLOG_GC => WireEvent::VlogGc(VlogGcJob::decode(body)?),
        _ => return None,
    };
    Some((generation, trace, event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes_like_records::sample;

    mod bytes_like_records {
        use lsm_store::Record;

        pub fn sample() -> Vec<Record> {
            (0..5)
                .map(|i| {
                    Record::put(
                        format!("key{i}").into_bytes(),
                        format!("value{i}").into_bytes(),
                        i + 1,
                    )
                })
                .collect()
        }
    }

    #[test]
    fn events_round_trip() {
        let records = sample();
        for (generation, trace, event) in [
            (1, TraceContext { trace_id: 11, span_id: 13 }, WireEvent::Frame(records)),
            (2, TraceContext::NONE, WireEvent::Flush),
            (
                3,
                TraceContext { trace_id: 5, span_id: 6 },
                WireEvent::Compact(CompactionJob {
                    input_levels: vec![2, 3, 4],
                    output_level: 2,
                    purge: true,
                }),
            ),
            (7, TraceContext::NONE, WireEvent::Promote),
            (
                8,
                TraceContext::NONE,
                WireEvent::VlogGc(VlogGcJob {
                    job: CompactionJob { input_levels: vec![1, 2], output_level: 2, purge: false },
                    rewrite_files: vec![3, 7],
                }),
            ),
        ] {
            let encoded = encode_event(generation, trace, &event);
            assert_eq!(decode_event(&encoded), Some((generation, trace, event)));
        }
    }

    #[test]
    fn trace_context_is_fixed_width() {
        let traced = encode_event(1, TraceContext { trace_id: 9, span_id: 10 }, &WireEvent::Flush);
        let untraced = encode_event(1, TraceContext::NONE, &WireEvent::Flush);
        assert_eq!(
            traced.len(),
            untraced.len(),
            "envelope size must not depend on tracing (per-byte charges stay identical)"
        );
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_event(&[]).is_none());
        assert!(decode_event(&[0; 8]).is_none(), "missing trace context");
        assert!(decode_event(&[0; 24]).is_none(), "missing tag");
        let mut bad = encode_event(1, TraceContext::NONE, &WireEvent::Flush);
        bad.push(0);
        assert!(decode_event(&bad).is_none(), "trailing bytes");
        let mut frame = encode_event(1, TraceContext::NONE, &WireEvent::Frame(sample()));
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        assert!(decode_event(&frame).is_none(), "frame CRC must reject");
        let unknown = [&1u64.to_le_bytes()[..], &[0u8; 16], &[99u8]].concat();
        assert!(decode_event(&unknown).is_none());
        let job = CompactionJob { input_levels: vec![1, 2], output_level: 2, purge: false };
        let mut compact = encode_event(1, TraceContext::NONE, &WireEvent::Compact(job.clone()));
        compact.pop();
        assert!(decode_event(&compact).is_none(), "truncated job must reject");
        let gc = VlogGcJob { job, rewrite_files: vec![4] };
        let mut shipped = encode_event(1, TraceContext::NONE, &WireEvent::VlogGc(gc));
        shipped.pop();
        assert!(decode_event(&shipped).is_none(), "truncated gc job must reject");
    }

    /// A level count of 2^61 in a shipped job: its byte length overflows,
    /// which used to panic the replica (debug: the multiplication, release:
    /// the reservation) instead of rejecting the shipment.
    #[test]
    fn overflowing_job_counts_rejected() {
        let job = CompactionJob { input_levels: vec![], output_level: 2, purge: false };
        let gc = VlogGcJob { job: job.clone(), rewrite_files: vec![] };
        for event in [WireEvent::Compact(job), WireEvent::VlogGc(gc)] {
            let mut shipped = encode_event(1, TraceContext::NONE, &event);
            // The job's level count sits 16 bytes into the body.
            shipped[25 + 16..25 + 24].copy_from_slice(&(1u64 << 61).to_le_bytes());
            assert!(decode_event(&shipped).is_none(), "{event:?}");
        }
    }
}
