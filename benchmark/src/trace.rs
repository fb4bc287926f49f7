//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each layer.
//!
//! [`Traced`] wraps the engine and is hosted through the public
//! `ClusterRuntime::host` seam, so every entry the runtime makes into
//! the NFS envelope — and through it into `core`, `isis` and `storage`
//! — is timed without touching the program. The root span of a request
//! is the client's `call`. To tie the two together each closed-loop
//! session sits alone on its home server and publishes the id of the
//! request it has in flight in that server's slot; the wrapper reads the
//! slot of the server it is entered for, so an engine span names the
//! root span that caused it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use deceit_core::ProtocolHost;
use deceit_net::NodeId;
use deceit_nfs::{FileHandle, NfsReply, NfsRequest, NfsService};
use deceit_sim::{SimDuration, SimTime};

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// `RuntimeClient::call`, as the session sees it: the root.
    Call,
    /// `NfsService::serve` — the exclusive cell lock path.
    Serve,
    ServeShared,
    ServeSharded,
    ServeReadSharded,
    /// `ProtocolHost::try_pump_shard` / `pump`, from the pump thread.
    Pump,
}

pub const KIND_NAMES: [&str; 6] =
    ["call", "serve", "serve_shared", "serve_sharded", "serve_read_sharded", "pump"];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// The root span's id; 0 for work no request caused (the pump).
    pub op: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Fast-path entries: whether the engine answered (`false` = it
    /// declined and the runtime fell back). Pump: whether events fired.
    pub hit: bool,
}

/// Span storage shared by the wrapper and the load generator. One buffer
/// per recording thread (server `i` records into buffer `i`, the pump
/// into the last), so the locks are never contended.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Per server: id of the request its one session has in flight.
    current: Box<[AtomicU64]>,
    bufs: Box<[Mutex<Vec<Span>>]>,
}

impl Tracer {
    pub fn new(servers: usize) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            current: (0..servers).map(|_| AtomicU64::new(0)).collect(),
            bufs: (0..servers + 1).map(|_| Mutex::new(Vec::with_capacity(1 << 16))).collect(),
        })
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A session announces the request it is about to send to `home`.
    /// Relaxed: the id travels ahead of the request, which reaches the
    /// server thread through the bus's own synchronisation.
    pub fn publish(&self, home: NodeId, op: u64) {
        self.current[home.index()].store(op, Ordering::Relaxed);
    }

    fn record(&self, buf: usize, span: Span) {
        self.bufs[buf].lock().expect("span buffer poisoned").push(span);
    }

    fn engine_span<T>(
        &self,
        via: NodeId,
        kind: SpanKind,
        f: impl FnOnce() -> Option<T>,
    ) -> Option<T> {
        let op = self.current[via.index()].load(Ordering::Relaxed);
        let start = self.now();
        let out = f();
        self.record(via.index(), Span { kind, op, start, end: self.now(), hit: out.is_some() });
        out
    }

    /// Adds spans a session thread collected locally (its root spans).
    pub fn extend(&self, spans: Vec<Span>) {
        self.bufs[0].lock().expect("span buffer poisoned").extend(spans);
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for buf in self.bufs.iter() {
            all.append(&mut buf.lock().expect("span buffer poisoned"));
        }
        all
    }
}

/// The engine with a stopwatch on every entry point the runtime uses.
#[derive(Debug)]
pub struct Traced<S> {
    pub inner: S,
    tracer: Arc<Tracer>,
}

impl<S> Traced<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        Traced { inner, tracer }
    }
}

impl<S: NfsService> NfsService for Traced<S> {
    fn mount_root(&self) -> FileHandle {
        self.inner.mount_root()
    }

    fn serve(&mut self, via: NodeId, req: NfsRequest) -> (NfsReply, SimDuration) {
        let inner = &mut self.inner;
        self.tracer
            .engine_span(via, SpanKind::Serve, || Some(inner.serve(via, req)))
            .expect("serve always answers")
    }

    fn serve_shared(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        self.tracer.engine_span(via, SpanKind::ServeShared, || self.inner.serve_shared(via, req))
    }

    fn serve_read_sharded(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        self.tracer.engine_span(via, SpanKind::ServeReadSharded, || {
            self.inner.serve_read_sharded(via, req)
        })
    }

    fn serve_sharded(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        self.tracer.engine_span(via, SpanKind::ServeSharded, || self.inner.serve_sharded(via, req))
    }
}

impl<S: ProtocolHost> ProtocolHost for Traced<S> {
    fn pump(&mut self, max_events: usize) -> usize {
        let start = self.tracer.now();
        let fired = self.inner.pump(max_events);
        self.pump_span(start, fired);
        fired
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn try_pump_shard(&self, slot: usize, max_events: usize) -> Option<usize> {
        let start = self.tracer.now();
        let fired = self.inner.try_pump_shard(slot, max_events);
        self.pump_span(start, fired.unwrap_or(0));
        fired
    }

    fn pending_shard_mask(&self) -> u64 {
        self.inner.pending_shard_mask()
    }

    fn advance_idle_clock(&self, d: SimDuration) {
        self.inner.advance_idle_clock(d);
    }

    fn settle(&mut self) {
        self.inner.settle();
    }

    fn pending_work(&self) -> usize {
        self.inner.pending_work()
    }

    fn crash_node(&mut self, node: NodeId) {
        self.inner.crash_node(node);
    }

    fn restart_node(&mut self, node: NodeId) {
        self.inner.restart_node(node);
    }

    fn split_nodes(&mut self, groups: &[&[NodeId]]) {
        self.inner.split_nodes(groups);
    }

    fn heal_nodes(&mut self) {
        self.inner.heal_nodes();
    }

    fn node_is_up(&self, node: NodeId) -> bool {
        self.inner.node_is_up(node)
    }

    fn protocol_now(&self) -> SimTime {
        self.inner.protocol_now()
    }

    fn obs_core(&self) -> Option<&deceit_core::ObsCore> {
        self.inner.obs_core()
    }

    fn stats_snapshot(&self) -> Option<deceit_sim::StatsSnapshot> {
        self.inner.stats_snapshot()
    }
}

impl<S> Traced<S> {
    fn pump_span(&self, start: u64, fired: usize) {
        let end = self.tracer.now();
        let pump_buf = self.tracer.bufs.len() - 1;
        self.tracer
            .record(pump_buf, Span { kind: SpanKind::Pump, op: 0, start, end, hit: fired > 0 });
    }
}

/// A span's self time: its duration minus the part of it that child
/// spans cover. Children may overlap each other and may stick out of the
/// parent; only covered time inside the parent is subtracted.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut inside: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    inside.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in inside {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// What the spans of one traced section add up to.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceSummary {
    /// Root spans, i.e. requests traced.
    pub ops: u64,
    /// Mean root span.
    pub call_ns: f64,
    /// Mean per request of its engine spans, all entry points.
    pub serve_ns: f64,
    /// Mean root self time: the request's time outside the engine.
    pub outside_ns: f64,
    /// Per span kind (indexed by `SpanKind as usize`; engine entry
    /// points only): `(calls, mean ns per call)`.
    pub entry: [(u64, f64); KIND_NAMES.len()],
    /// Fast-path entries (`serve_shared`/`_sharded`/`_read_sharded`).
    pub fast_attempts: u64,
    /// Of those, declined — work thrown away before the fallback.
    pub fast_declined: u64,
    pub pump_calls: u64,
    /// Mean duration of pump calls that fired events.
    pub pump_ns: f64,
    /// Sum of all pump spans.
    pub pump_busy_ns: u64,
    /// Engine spans that do not lie inside their root span, or name no
    /// root at all: each one is a hole in the attribution.
    pub orphans: u64,
}

pub fn summarize(spans: &[Span]) -> TraceSummary {
    let mut sum = TraceSummary::default();
    let mut pump_hit = (0u64, 0u64);
    let mut entry_total = [(0u64, 0u64); KIND_NAMES.len()];
    // Group each request's spans behind its root: `Call` sorts first.
    let mut by_op: Vec<&Span> = Vec::with_capacity(spans.len());
    for s in spans {
        let dur = s.end - s.start;
        match s.kind {
            SpanKind::Pump => {
                sum.pump_calls += 1;
                sum.pump_busy_ns += dur;
                if s.hit {
                    pump_hit = (pump_hit.0 + 1, pump_hit.1 + dur);
                }
                continue;
            }
            SpanKind::Call => sum.ops += 1,
            kind => {
                let e = &mut entry_total[kind as usize];
                *e = (e.0 + 1, e.1 + dur);
                if kind != SpanKind::Serve {
                    sum.fast_attempts += 1;
                    sum.fast_declined += u64::from(!s.hit);
                }
            }
        }
        by_op.push(s);
    }
    by_op.sort_unstable_by_key(|s| (s.op, s.kind as u8, s.start));
    let (mut call, mut outside) = (0u64, 0u64);
    let mut children: Vec<(u64, u64)> = Vec::new();
    let mut group = by_op.as_slice();
    while let Some(first) = group.first() {
        let len = group.iter().take_while(|s| s.op == first.op).count();
        let (spans_of_op, rest) = group.split_at(len);
        group = rest;
        if first.kind != SpanKind::Call {
            sum.orphans += len as u64;
            continue;
        }
        let root = (first.start, first.end);
        children.clear();
        for s in &spans_of_op[1..] {
            if root.0 <= s.start && s.end <= root.1 {
                children.push((s.start, s.end));
            } else {
                sum.orphans += 1;
            }
        }
        call += root.1 - root.0;
        outside += self_time(root, &children);
    }
    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    sum.call_ns = per(call, sum.ops);
    sum.outside_ns = per(outside, sum.ops);
    sum.serve_ns = sum.call_ns - sum.outside_ns;
    sum.entry = entry_total.map(|(n, t)| (n, per(t, n)));
    sum.pump_ns = per(pump_hit.1, pump_hit.0);
    sum
}

/// The trace file: the first `max_ops` requests with everything that ran
/// on their behalf or beside them, as `[kind, op, start_ns, end_ns, hit]`
/// rows sorted by start time. See the README for how to read it.
pub fn trace_file(workload: &str, seed: u64, spans: &[Span], max_ops: usize) -> Json {
    let mut roots: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Call).collect();
    roots.sort_by_key(|s| s.start);
    roots.truncate(max_ops);
    let horizon = roots.last().map_or(0, |s| s.end);
    let mut rows: Vec<&Span> =
        spans.iter().filter(|s| s.start <= horizon && s.end <= horizon).collect();
    rows.sort_by_key(|s| (s.start, s.kind as u8));
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("time_unit", Json::str("ns since trace start")),
        ("columns", Json::Arr(["kind", "op", "start", "end", "hit"].map(Json::str).to_vec())),
        ("kinds", Json::Arr(KIND_NAMES.map(Json::str).to_vec())),
        (
            "spans",
            Json::Arr(
                rows.into_iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::str(KIND_NAMES[s.kind as usize]),
                            Json::Num(s.op as f64),
                            Json::Num(s.start as f64),
                            Json::Num(s.end as f64),
                            Json::Bool(s.hit),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((100, 200), &[]), 100);
        assert_eq!(self_time((100, 200), &[(120, 150)]), 70);
        // Sequential children (declined fast path, then the fallback).
        assert_eq!(self_time((100, 200), &[(110, 120), (130, 170)]), 50);
        // Overlapping children are not subtracted twice.
        assert_eq!(self_time((100, 200), &[(110, 150), (140, 160)]), 50);
        // Nested child adds nothing; unordered input is fine.
        assert_eq!(self_time((100, 200), &[(140, 160), (110, 190), (120, 130)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time((100, 200), &[(50, 120), (190, 400), (300, 500)]), 70);
        assert_eq!(self_time((100, 200), &[(0, 1000)]), 0);
    }

    fn span(kind: SpanKind, op: u64, start: u64, end: u64, hit: bool) -> Span {
        Span { kind, op, start, end, hit }
    }

    #[test]
    fn summary_attributes_engine_time_to_the_request_that_caused_it() {
        use SpanKind::*;
        let spans = [
            // Request 1: served on the shared fast path.
            span(Call, 1, 0, 1_000, true),
            span(ServeShared, 1, 400, 600, true),
            // Request 2: fast path declines, exclusive serve answers.
            span(Call, 2, 2_000, 5_000, true),
            span(ServeSharded, 2, 2_500, 2_600, false),
            span(Serve, 2, 3_000, 4_400, true),
            // The pump, beside them.
            span(Pump, 0, 100, 150, false),
            span(Pump, 0, 4_000, 4_250, true),
            // A span that names a request it does not lie inside.
            span(ServeShared, 1, 1_500, 1_600, true),
        ];
        let s = summarize(&spans);
        assert_eq!(s.ops, 2);
        assert_eq!(s.call_ns, 2_000.0);
        assert_eq!(s.serve_ns, (200.0 + 1_500.0) / 2.0);
        assert_eq!(s.outside_ns, (800.0 + 1_500.0) / 2.0);
        assert_eq!(s.call_ns, s.serve_ns + s.outside_ns, "the layers sum to the root");
        assert_eq!(s.entry[Serve as usize], (1, 1_400.0));
        assert_eq!(s.entry[ServeShared as usize], (2, 150.0));
        assert_eq!((s.fast_attempts, s.fast_declined), (3, 1));
        assert_eq!((s.pump_calls, s.pump_ns, s.pump_busy_ns), (2, 250.0, 300));
        assert_eq!(s.orphans, 1);
    }

    #[test]
    fn wrapper_times_every_entry_point_and_tags_the_published_request() {
        use deceit_nfs::{DeceitFs, NfsServer};
        let tracer = Tracer::new(3);
        let mut srv = Traced::new(NfsServer::new(DeceitFs::with_defaults(3)), Arc::clone(&tracer));
        let root = srv.mount_root();
        tracer.publish(NodeId(1), 77);
        let (rep, _) =
            srv.serve(NodeId(1), NfsRequest::Create { dir: root, name: "f".into(), mode: 0o644 });
        let NfsReply::Attr(attr) = rep else { panic!("{rep:?}") };
        srv.settle();
        tracer.publish(NodeId(1), 78);
        let read = NfsRequest::Read { fh: attr.handle, offset: 0, count: 8 };
        assert!(srv.serve_shared(NodeId(1), &read).is_some());
        assert!(srv.serve_sharded(NodeId(1), &read).is_none(), "a read is not a sharded mutation");
        let _ = srv.try_pump_shard(0, 8);
        let spans = tracer.drain();
        let seen: Vec<_> = spans.iter().map(|s| (s.kind, s.op, s.hit)).collect();
        assert!(seen.contains(&(SpanKind::Serve, 77, true)), "{seen:?}");
        assert!(seen.contains(&(SpanKind::ServeShared, 78, true)), "{seen:?}");
        assert!(seen.contains(&(SpanKind::ServeSharded, 78, false)), "{seen:?}");
        assert!(seen.iter().any(|s| s.0 == SpanKind::Pump && s.1 == 0), "{seen:?}");
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(tracer.drain().is_empty(), "drain takes the spans");
    }

    #[test]
    fn trace_file_keeps_whole_requests_up_to_the_cap() {
        use SpanKind::*;
        let spans = [
            span(Call, 1, 0, 100, true),
            span(ServeShared, 1, 10, 20, true),
            span(Call, 2, 200, 300, true),
            span(ServeShared, 2, 210, 220, true),
        ];
        let file = trace_file("read-local", 1, &spans, 1);
        let rows = file.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2, "request 2 is beyond the cap");
        assert_eq!(rows[1].as_arr().unwrap()[0], Json::str("serve_shared"));
        assert_eq!(Json::parse(&file.encode()).unwrap(), file);
    }
}
