//! RPC correlation edge cases: a pipelined call timing out mid-stream
//! while its neighbors complete, and reply correlation when an endpoint
//! is torn down and re-registered under the same node id.

use std::time::Duration;

use deceit_net::live::LiveBus;
use deceit_net::rpc::{Rpc, RpcEndpoint, RpcError};
use deceit_net::NodeId;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

type Frame = Rpc<u64, u64>;

/// A pipelined call that never gets answered must time out without
/// disturbing the calls around it: earlier and later replies still
/// correlate, and a straggler reply to the timed-out call is dropped
/// rather than resurrected.
#[test]
fn pipelined_timeout_mid_stream_leaves_neighbors_intact() {
    let bus: LiveBus<Frame> = LiveBus::new();
    let mut server: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(1));
    let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));

    let a = client.submit(n(1), 10).unwrap();
    let b = client.submit(n(1), 20).unwrap();
    let c = client.submit(n(1), 30).unwrap();
    assert_eq!(client.in_flight(), 3);

    // The server answers the first and third request; the second is
    // swallowed (the reply a crashed peer would never send).
    let mut swallowed = None;
    for _ in 0..3 {
        let req = server.next_request(Duration::from_secs(2)).expect("request");
        if req.req == 20 {
            swallowed = Some(req);
        } else {
            assert!(server.reply(req.from, req.call, req.req * 10));
        }
    }
    let swallowed = swallowed.expect("the middle request must have arrived");

    // Waits resolve out of order around the hole; the hole times out.
    assert_eq!(client.wait(c, Duration::from_secs(2)), Ok(300));
    assert_eq!(client.wait(b, Duration::from_millis(50)), Err(RpcError::Timeout(n(1))));
    assert_eq!(client.wait(a, Duration::from_secs(2)), Ok(100));
    assert_eq!(client.in_flight(), 0);

    // The straggler reply arrives after the timeout: it must be dropped,
    // not buffered against a forgotten call.
    assert!(server.reply(swallowed.from, swallowed.call, 999));
    let d = client.submit(n(1), 40).unwrap();
    let req = server.next_request(Duration::from_secs(2)).expect("request");
    assert!(server.reply(req.from, req.call, req.req * 10));
    assert_eq!(client.wait(d, Duration::from_secs(2)), Ok(400));
    assert_eq!(
        client.wait(swallowed.call, Duration::from_millis(10)),
        Err(RpcError::UnknownCall(swallowed.call)),
        "a timed-out call must stay dead"
    );
}

/// Tearing an endpoint down mid-call and re-registering its node id must
/// not let a reply addressed to the *previous* incarnation correlate
/// against the new one's calls: call-id spaces are disjoint across
/// incarnations.
#[test]
fn reply_correlation_survives_endpoint_reregistration() {
    let bus: LiveBus<Frame> = LiveBus::new();
    let mut server: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(1));

    // First incarnation of client 0: a request whose reply will be late.
    let mut first: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
    let _old_call = first.submit(n(1), 111).unwrap();
    let old_req = server.next_request(Duration::from_secs(2)).expect("first request");
    drop(first); // Session dies with its call still in flight.

    // Second incarnation under the same node id.
    let mut second: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
    let new_call = second.submit(n(1), 222).unwrap();
    assert_ne!(new_call, old_req.call, "incarnations must not share call ids");

    // The server answers the dead incarnation's request first — this
    // frame reaches the *new* endpoint (same node id). It must not be
    // taken for the new call.
    assert!(server.reply(old_req.from, old_req.call, 1110));
    let new_req = server.next_request(Duration::from_secs(2)).expect("second request");
    assert!(server.reply(new_req.from, new_req.call, 2220));
    assert_eq!(second.wait(new_call, Duration::from_secs(2)), Ok(2220));
    assert_eq!(second.in_flight(), 0);
}

/// "Never give up" is a legal timeout: `Duration::MAX` cannot be added
/// to the clock, and must mean "no deadline" rather than a panic on the
/// calling thread — for the caller's `wait` and the callee's
/// `next_request` alike.
#[test]
fn duration_max_timeout_means_no_deadline() {
    let bus: LiveBus<Frame> = LiveBus::new();
    let mut server: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(1));
    let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
    let echo = std::thread::spawn(move || {
        let req = server.next_request(Duration::MAX).expect("request");
        assert!(server.reply(req.from, req.call, req.req + 1));
    });
    assert_eq!(client.call(n(1), 41, Duration::MAX), Ok(42));
    echo.join().unwrap();
    // The raw endpoint takes the same value without blocking forever
    // when a frame is already there.
    let a = bus.register(n(2));
    let mut b: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(3));
    let call = b.submit(n(2), 5).unwrap();
    let env = a.recv_timeout(Duration::MAX).expect("queued request");
    assert_eq!(env.msg, Rpc::Request { call, req: 5 });
}
