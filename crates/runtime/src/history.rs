//! Live operation-history recording for the consistency auditor.
//!
//! A [`HistoryRecorder`] hands out per-client [`JournalHandle`]s; every
//! handle appends to its own journal (touched only by its owner thread,
//! so the mutex is uncontended) while a single shared atomic hands out
//! the global sequence stamps that give the merged [`History`] its total
//! order. Invokes are stamped *before* the request leaves the client and
//! acks *after* the reply is in hand, so the recorded interval
//! conservatively covers the operation's true effect time — the property
//! [`deceit_core::audit::audit`] leans on for its causality check.
//!
//! The recorder is deliberately dumb: no filtering, no aggregation. The
//! nemesis merges the journals with [`HistoryRecorder::merge`] and hands
//! the artifact to [`deceit_core::audit::audit`].

use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;
use deceit_core::{Event, EventBody, FaultEvent, History, OpCall, OpOutcome};
use deceit_nfs::{NfsReply, NfsRequest};
use deceit_sim::atomic::RelaxedU64;

use crate::error::{RuntimeError, RuntimeResult};

/// Locks a journal table or journal, poison-tolerant like
/// `deceit_core`'s slot locks: every critical section is a single push
/// or a read, so a session that panicked mid-request left the vector
/// whole, and the history of the sessions that did not is still worth
/// auditing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The journal id faults and final states are recorded under.
pub const NEMESIS_CLIENT: u32 = u32::MAX;

#[derive(Default)]
struct Journal {
    client: u32,
    events: Mutex<Vec<Event>>,
}

/// Shared recorder: one per storm, cloned into every participant.
#[derive(Default)]
pub struct HistoryRecorder {
    /// Stamp allocator: the merged order needs only uniqueness and
    /// monotonicity, and every push happens-before the merge (a join).
    seq: RelaxedU64,
    journals: Mutex<Vec<Arc<Journal>>>,
}

impl HistoryRecorder {
    pub fn new() -> Arc<Self> {
        Arc::new(HistoryRecorder::default())
    }

    /// Opens a journal for one client session (or the nemesis itself).
    pub fn journal(self: &Arc<Self>, client: u32) -> JournalHandle {
        let journal = Arc::new(Journal { client, events: Mutex::new(Vec::new()) });
        lock(&self.journals).push(Arc::clone(&journal));
        JournalHandle { recorder: Arc::clone(self), journal }
    }

    fn stamp(&self) -> u64 {
        self.seq.fetch_add(1) + 1
    }

    /// Merges every journal into one seq-ordered history. Call after the
    /// participating threads have been joined.
    pub fn merge(&self) -> History {
        let journals = lock(&self.journals);
        let mut events = Vec::new();
        for j in journals.iter() {
            events.extend(lock(&j.events).iter().cloned());
        }
        History::from_events(events)
    }
}

/// One participant's append-only view of the recorder.
pub struct JournalHandle {
    recorder: Arc<HistoryRecorder>,
    journal: Arc<Journal>,
}

impl JournalHandle {
    fn push(&self, body: EventBody) -> u64 {
        let seq = self.recorder.stamp();
        lock(&self.journal.events).push(Event { seq, client: self.journal.client, body });
        seq
    }

    /// Records an operation about to be sent; returns the op id the
    /// matching [`JournalHandle::ack`] must echo. Requests outside the
    /// audited vocabulary record as `Other` (the auditor ignores them,
    /// but the history stays complete).
    pub fn invoke(&self, req: &NfsRequest) -> u64 {
        let call = match req {
            NfsRequest::Write { fh, offset, data } => {
                OpCall::Write { file: fh.seg.0, offset: *offset, data: data.to_vec() }
            }
            NfsRequest::Read { fh, offset, .. } => OpCall::Read { file: fh.seg.0, offset: *offset },
            NfsRequest::Getattr { fh } => OpCall::Getattr { file: fh.seg.0 },
            NfsRequest::Create { name, .. } => OpCall::Create { name: name.clone() },
            NfsRequest::DeceitSetParams { fh, params } => OpCall::SetParams {
                file: fh.seg.0,
                write_safety: params.write_safety,
                min_replicas: params.min_replicas,
            },
            _ => OpCall::Other { what: "request" },
        };
        let seq = self.recorder.stamp();
        lock(&self.journal.events).push(Event {
            seq,
            client: self.journal.client,
            body: EventBody::Invoke { op: seq, call },
        });
        seq
    }

    /// Records the outcome of a previously invoked operation.
    pub fn ack(&self, op: u64, result: &RuntimeResult<NfsReply>) {
        let outcome = match result {
            Ok(NfsReply::Data(data)) => {
                OpOutcome::Data { len: data.len(), hash: deceit_core::fnv1a(data) }
            }
            Ok(NfsReply::Attr(attr)) => OpOutcome::Attr {
                file: attr.handle.seg.0,
                size: attr.size,
                version: (attr.version.major, attr.version.sub),
            },
            Ok(NfsReply::Error(e)) => OpOutcome::Denied { error: e.to_string() },
            Ok(_) => OpOutcome::Ok,
            Err(RuntimeError::Nfs(e)) => OpOutcome::Denied { error: e.to_string() },
            Err(_) => OpOutcome::Lost,
        };
        self.push(EventBody::Ack { op, outcome });
    }

    /// Records a nemesis fault action.
    pub fn fault(&self, fault: FaultEvent) {
        self.push(EventBody::Fault(fault));
    }

    /// Records the post-storm ground truth for one file.
    pub fn final_state(&self, file: u64, data: &Bytes, version: (u64, u64), replicas: usize) {
        self.push(EventBody::FinalState {
            file,
            len: data.len(),
            hash: deceit_core::fnv1a(data),
            version,
            replicas,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deceit_core::SegmentId;
    use deceit_nfs::FileHandle;

    #[test]
    fn journals_merge_in_stamp_order() {
        let rec = HistoryRecorder::new();
        let a = rec.journal(1);
        let b = rec.journal(2);
        let fh = FileHandle { seg: SegmentId(7), version: None };
        let op_a = a.invoke(&NfsRequest::Read { fh, offset: 0, count: 64 });
        let op_b = b.invoke(&NfsRequest::Getattr { fh });
        b.ack(op_b, &Err(RuntimeError::UnexpectedReply("x")));
        a.ack(op_a, &Ok(NfsReply::Data(Bytes::from_static(b"hi"))));
        let history = rec.merge();
        assert_eq!(history.len(), 4);
        let seqs: Vec<u64> = history.events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "merge must sort: {seqs:?}");
        assert!(matches!(
            history.events[0].body,
            EventBody::Invoke { op, call: OpCall::Read { file: 7, offset: 0 } } if op == seqs[0]
        ));
    }

    #[test]
    fn write_invoke_keeps_payload_and_ack_classifies() {
        let rec = HistoryRecorder::new();
        let j = rec.journal(9);
        let fh = FileHandle { seg: SegmentId(3), version: None };
        let op = j.invoke(&NfsRequest::Write { fh, offset: 4, data: Bytes::from_static(b"zz") });
        j.ack(op, &Ok(NfsReply::Data(Bytes::from_static(b"zz"))));
        let history = rec.merge();
        match &history.events[0].body {
            EventBody::Invoke { call: OpCall::Write { file, offset, data }, .. } => {
                assert_eq!((*file, *offset, data.as_slice()), (3, 4, &b"zz"[..]));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &history.events[1].body {
            EventBody::Ack { outcome: OpOutcome::Data { len: 2, hash }, .. } => {
                assert_eq!(*hash, deceit_core::fnv1a(b"zz"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
