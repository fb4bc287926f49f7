//! The serve ladder, live: which rung answers each kind of request, and
//! the order a server answers its mailbox in.
//!
//! * **ladder table** — on a 3-server cell, one request of each kind
//!   lands on exactly one rung and is counted there once: a local stable
//!   read under the shared cell lock alone, a read forwarded from a
//!   server with no replica and the single-file mutations under ring
//!   locks, creations and removals under the exclusive cell lock (one
//!   exclusive acquisition each).
//! * **counted before the reply** — a session that reads the stats
//!   right after a reply finds that request counted.
//! * **pipelined mixed traffic** — one session queues alternating writes
//!   and reads of one file at its home without waiting; every read must
//!   see the write queued just before it, so the server answers in
//!   arrival order whatever rung each request lands on.

use std::thread;
use std::time::{Duration, Instant};

use deceit_core::FileParams;
use deceit_nfs::{NfsReply, NfsRequest};
use deceit_runtime::{live_agent, ClusterRuntime, RuntimeConfig};

/// Served-request counts per rung, and exclusive cell-lock acquisitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rungs {
    shared: u64,
    ring: u64,
    cell: u64,
    exclusive: u64,
}

impl Rungs {
    fn now(rt: &ClusterRuntime) -> Rungs {
        let exclusive = rt.observe().engine.exclusive_acquisitions;
        let s = rt.stats();
        Rungs {
            shared: s.requests_served_shared,
            ring: s.requests_served_sharded,
            cell: s.requests_served - s.requests_served_shared - s.requests_served_sharded,
            exclusive,
        }
    }

    /// The counts once the request served after `before` has been
    /// counted: the ladder table checks where a request lands, not when
    /// its count becomes visible (the test below pins that).
    #[expect(clippy::disallowed_methods, reason = "the wait bound times the test, not the product")]
    fn after(rt: &ClusterRuntime, before: Rungs) -> Rungs {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = Rungs::now(rt).since(before);
            if now.shared + now.ring + now.cell > 0 || Instant::now() > deadline {
                return now;
            }
            thread::yield_now();
        }
    }

    fn since(self, before: Rungs) -> Rungs {
        Rungs {
            shared: self.shared - before.shared,
            ring: self.ring - before.ring,
            cell: self.cell - before.cell,
            exclusive: self.exclusive - before.exclusive,
        }
    }
}

const SHARED: Rungs = Rungs { shared: 1, ring: 0, cell: 0, exclusive: 0 };
const RING: Rungs = Rungs { shared: 0, ring: 1, cell: 0, exclusive: 0 };
const CELL: Rungs = Rungs { shared: 0, ring: 0, cell: 1, exclusive: 1 };

#[test]
fn each_request_kind_lands_on_one_rung() {
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let home = rt.server_ids()[0];
    let mut c = rt.client_homed(home);
    let (mut agent, root) = (live_agent(&c), c.root());
    // `stable` is replicated on every server; `solo` keeps one replica.
    let stable = agent.create(&mut c, root, "stable", 0o644).expect("create stable").0.handle;
    agent.set_file_params(&mut c, stable, FileParams::important(3)).expect("replicate stable");
    agent.write(&mut c, stable, 0, b"stable bytes").expect("write stable");
    let solo = agent.create(&mut c, root, "solo", 0o644).expect("create solo").0.handle;
    agent.write(&mut c, solo, 0, b"solo bytes").expect("write solo");
    rt.settle();
    let (holders, _) = agent.locate_replicas(&mut c, solo).expect("locate solo");
    let away = *rt
        .server_ids()
        .iter()
        .find(|s| !holders.contains(s))
        .unwrap_or_else(|| panic!("solo is on every server: {holders:?}"));

    let table = [
        ("local stable read", home, NfsRequest::Read { fh: stable, offset: 0, count: 6 }, SHARED),
        ("read with no replica", away, NfsRequest::Read { fh: solo, offset: 0, count: 4 }, RING),
        ("write", home, NfsRequest::Write { fh: stable, offset: 0, data: b"S".into() }, RING),
        (
            "setattr",
            home,
            NfsRequest::Setattr { fh: stable, mode: Some(0o600), uid: None, gid: None, size: None },
            RING,
        ),
        ("create", home, NfsRequest::Create { dir: root, name: "new".into(), mode: 0o644 }, CELL),
        ("remove", home, NfsRequest::Remove { dir: root, name: "new".into() }, CELL),
    ];
    for (what, via, req, rung) in table {
        let before = Rungs::now(&rt);
        let rep = c.call_via(via, req).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert!(rep.as_error().is_none(), "{what}: {rep:?}");
        assert_eq!(Rungs::after(&rt, before), rung, "{what} via {via}");
    }
    rt.shutdown();
}

#[test]
fn a_request_is_counted_before_its_reply() {
    const OPS: usize = 1_000;
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let mut c = rt.client_homed(rt.server_ids()[0]);
    let (mut agent, root) = (live_agent(&c), c.root());
    let fh = agent.create(&mut c, root, "f", 0o644).expect("create").0.handle;
    for i in 0..OPS {
        let before = rt.stats().requests_served;
        if i % 2 == 0 {
            agent.write(&mut c, fh, 0, b"counted").expect("write");
        } else {
            agent.read_file(&mut c, fh).expect("read");
        }
        assert_eq!(rt.stats().requests_served, before + 1, "request {i} not counted yet");
    }
    rt.shutdown();
}

#[test]
fn pipelined_mixed_traffic_keeps_arrival_order() {
    const PAIRS: usize = 64;
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let mut c = rt.client_homed(rt.server_ids()[0]);
    let root = c.root();
    let fh = live_agent(&c).create(&mut c, root, "f", 0o644).expect("create").0.handle;
    let payload = |k: usize| format!("write {k:03}").into_bytes();
    let len = payload(0).len();
    let calls: Vec<_> = (0..PAIRS)
        .map(|k| {
            let write = NfsRequest::Write { fh, offset: 0, data: payload(k).into() };
            let read = NfsRequest::Read { fh, offset: 0, count: len };
            (c.submit(write).expect("submit write"), c.submit(read).expect("submit read"))
        })
        .collect();
    for (k, (write, read)) in calls.into_iter().enumerate() {
        let rep = c.wait(write).expect("write reply");
        assert!(rep.as_error().is_none(), "write {k}: {rep:?}");
        match c.wait(read).expect("read reply") {
            NfsReply::Data(data) => {
                assert_eq!(&data[..], &payload(k)[..], "read {k} must see write {k}")
            }
            other => panic!("read {k}: {other:?}"),
        }
    }
    rt.shutdown();
}
