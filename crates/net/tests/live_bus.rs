//! Dedicated coverage for `net::live::LiveBus` crash/partition/
//! unreachable semantics, including a differential test pinning the live
//! bus's connectivity rules to the simulator's `topology::Partition`.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use deceit_net::live::{LiveBus, LiveEndpoint};
use deceit_net::topology::Partition;
use deceit_net::NodeId;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// Pseudo-random-ish assignment of nodes to groups from a seed, shared by
/// both the LiveBus and the reference Partition.
fn grouping(seed: u64, nodes: u32, groups: usize) -> Vec<Vec<NodeId>> {
    let mut out = vec![Vec::new(); groups];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in 0..nodes {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Leave some nodes out of every named group: they land in the
        // implicit rest-of-world group in both implementations.
        let slot = (state >> 33) as usize % (groups + 1);
        if slot < groups {
            out[slot].push(n(v));
        }
    }
    out
}

/// The live bus must accept/reject exactly where the simulator's
/// partition rules say two nodes can/cannot reach each other, across
/// random groupings and crash sets. Session endpoints, attached to a
/// home before or during the split, sit wherever their home sits.
#[test]
fn connectivity_matches_topology_partition_rules() {
    const NODES: u32 = 8;
    const SESSIONS: u32 = 4;
    const SESSION_BASE: u32 = 100;
    for seed in 0..24u64 {
        let bus: LiveBus<u32> = LiveBus::new();
        let ids: Vec<NodeId> =
            (0..NODES).chain(SESSION_BASE..SESSION_BASE + SESSIONS).map(n).collect();
        let endpoints: Vec<_> = ids.iter().map(|&id| bus.register(id)).collect();
        let home = |s: u32| n((seed as u32 + 3 * s) % NODES);
        let site = |id: NodeId| if id.0 >= SESSION_BASE { home(id.0 - SESSION_BASE) } else { id };
        let attach = |sessions: std::ops::Range<u32>| {
            for s in sessions {
                endpoints[(NODES + s) as usize].attach(home(s));
            }
        };

        attach(0..SESSIONS / 2);
        let groups = grouping(seed, NODES, 1 + (seed % 3) as usize);
        let refs: Vec<&[NodeId]> = groups.iter().map(Vec::as_slice).collect();
        bus.split(&refs);
        let reference = Partition::split(&refs);
        attach(SESSIONS / 2..SESSIONS);

        // A deterministic crash set on top of the partition.
        let crashed: Vec<NodeId> =
            (0..NODES).filter(|v| (seed + *v as u64).is_multiple_of(5)).map(n).collect();
        for &c in &crashed {
            bus.crash(c);
        }

        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                if a == b {
                    continue;
                }
                let expect = reference.can_reach(site(a), site(b))
                    && !crashed.contains(&a)
                    && !crashed.contains(&b);
                // The query surface and an actual send must both agree
                // with the reference rules.
                assert_eq!(
                    bus.can_exchange(a, b),
                    expect,
                    "seed {seed}: can_exchange({a},{b}) disagrees with Partition::can_reach"
                );
                let msg = (i * 100 + j) as u32;
                let sent = endpoints[i].send(b, msg);
                assert_eq!(
                    sent, expect,
                    "seed {seed}: send({a}->{b}) disagrees with Partition::can_reach"
                );
                if sent {
                    let env = endpoints[j].try_recv().expect("delivered message");
                    assert_eq!(env.from, a);
                    assert_eq!(env.msg, msg);
                }
            }
        }

        // Healing + recovery restores full connectivity, as in the sim.
        bus.heal();
        for &c in &crashed {
            bus.recover(c);
        }
        for &a in &ids {
            for &b in &ids {
                assert!(bus.can_exchange(a, b), "healed bus must be fully connected");
            }
        }
    }
}

#[test]
fn crash_rejects_both_directions_and_evaporates_queued_traffic() {
    let bus: LiveBus<&'static str> = LiveBus::new();
    let a = bus.register(n(0));
    let b = bus.register(n(1));

    // Queue a message, then crash the receiver: new traffic is rejected
    // both ways, and the queued message dies with the machine — a dead
    // kernel's buffers do not survive the reboot.
    assert!(a.send(n(1), "queued before crash"));
    bus.crash(n(1));
    assert!(bus.is_crashed(n(1)));
    assert!(!a.send(n(1), "into the void"));
    assert!(!b.send(n(0), "from the grave"));
    assert_eq!(bus.rejected(), 2);

    bus.recover(n(1));
    assert!(!bus.is_crashed(n(1)));
    // Post-recovery traffic flows; the pre-crash frame was discarded
    // even though recovery happened before the endpoint drained it.
    assert!(a.send(n(1), "back online"));
    assert_eq!(b.try_recv().unwrap().msg, "back online");
    assert!(b.try_recv().is_none());
    assert_eq!(bus.dropped_stale(), 1);
}

#[test]
fn unreachable_cases_are_all_counted() {
    let bus: LiveBus<u8> = LiveBus::new();
    let a = bus.register(n(0));
    // Unregistered destination.
    assert!(!a.send(n(7), 1));
    // Partitioned destination.
    let _b = bus.register(n(1));
    bus.split(&[&[n(0)], &[n(1)]]);
    assert!(!a.send(n(1), 2));
    // Crashed destination.
    bus.heal();
    bus.crash(n(1));
    assert!(!a.send(n(1), 3));
    assert_eq!(bus.rejected(), 3);
    assert_eq!(bus.delivered(), 0);
}

#[test]
fn nodes_lists_registered_ids_in_order() {
    let bus: LiveBus<u8> = LiveBus::new();
    let _c = bus.register(n(5));
    let _a = bus.register(n(1));
    let _b = bus.register(n(3));
    assert_eq!(bus.nodes(), vec![n(1), n(3), n(5)]);
}

/// Partition changes are honoured by concurrently running senders: a
/// receiver thread sees traffic stop while split and resume after heal.
#[test]
fn split_and_heal_race_with_live_traffic() {
    let bus: LiveBus<u64> = LiveBus::new();
    let tx = bus.register(n(0));
    let rx = bus.register(n(1));

    let sender = thread::spawn(move || {
        let mut accepted = 0u64;
        for i in 0..10_000u64 {
            if tx.send(n(1), i) {
                accepted += 1;
            }
            if i % 64 == 0 {
                thread::yield_now();
            }
        }
        accepted
    });

    // Flap the partition while the sender runs.
    for _ in 0..20 {
        bus.split(&[&[n(0)], &[n(1)]]);
        thread::sleep(Duration::from_micros(200));
        bus.heal();
        thread::sleep(Duration::from_micros(200));
    }
    let accepted = sender.join().unwrap();

    let mut received = 0u64;
    while rx.try_recv().is_some() {
        received += 1;
    }
    assert_eq!(received, accepted, "every accepted send must be delivered exactly once");
    assert_eq!(bus.delivered(), accepted);
    assert_eq!(bus.rejected(), 10_000 - accepted);
}

// ---------------------------------------------------------------------
// The hand-off contract: what any implementation of the bus must keep.
// ---------------------------------------------------------------------

/// Frames from one sender arrive in the order that sender sent them,
/// whatever the other senders are doing (cross-sender order is ISIS's
/// job, not the bus's).
#[test]
fn per_sender_fifo_under_four_concurrent_senders() {
    const SENDERS: u32 = 4;
    const FRAMES: u64 = 20_000;
    let bus: LiveBus<u64> = LiveBus::new();
    let rx = bus.register(n(100));
    let start = Arc::new(Barrier::new(SENDERS as usize));
    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let tx = bus.register(n(s));
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..FRAMES {
                    assert!(tx.send(n(100), i));
                }
                // The endpoint stays plugged in until the receiver is done.
                tx
            })
        })
        .collect();
    let mut next = [0u64; SENDERS as usize];
    for _ in 0..u64::from(SENDERS) * FRAMES {
        let env = rx.recv_timeout(Duration::from_secs(5)).expect("a frame went missing");
        let seen = &mut next[env.from.index()];
        assert_eq!(env.msg, *seen, "sender {} delivered out of order", env.from);
        *seen += 1;
    }
    assert!(rx.try_recv().is_none());
    for s in senders {
        s.join().unwrap();
    }
}

/// Delivery invariant 1: a frame accepted before `crash(n)` returns is
/// never delivered by `n`. Senders blast `n` while another thread
/// crashes it; once everyone has quiesced and `n` has recovered, its
/// queue must hold nothing deliverable — every accepted frame was
/// stamped with the pre-crash epoch (the epoch is read in the same
/// critical section as the liveness check) and evaporates on receive.
#[test]
fn crash_race_evaporates_every_frame_accepted_before_the_crash() {
    const SENDERS: u32 = 3;
    for round in 0..20u32 {
        let bus: LiveBus<u64> = LiveBus::new();
        let victim = bus.register(n(9));
        // Senders + the crasher leave the gate together and meet the
        // main thread again at `quiesced`.
        let gate = Arc::new(Barrier::new(SENDERS as usize + 1));
        let quiesced = Arc::new(Barrier::new(SENDERS as usize + 2));
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = bus.register(n(s));
                let (gate, quiesced) = (Arc::clone(&gate), Arc::clone(&quiesced));
                thread::spawn(move || {
                    gate.wait();
                    let mut accepted = 0u64;
                    // Send until the crash shows, then a little longer.
                    let mut refused = 0;
                    while refused < 64 {
                        if tx.send(n(9), accepted) {
                            accepted += 1;
                        } else {
                            refused += 1;
                        }
                    }
                    quiesced.wait();
                    accepted
                })
            })
            .collect();
        let crasher = {
            let (bus, gate, quiesced) = (bus.clone(), Arc::clone(&gate), Arc::clone(&quiesced));
            thread::spawn(move || {
                gate.wait();
                for _ in 0..round {
                    thread::yield_now();
                }
                bus.crash(n(9));
                quiesced.wait();
            })
        };
        quiesced.wait();
        bus.recover(n(9));
        assert!(
            victim.try_recv().is_none(),
            "round {round}: a pre-crash frame survived the reboot"
        );
        crasher.join().unwrap();
        let accepted: u64 = senders.into_iter().map(|s| s.join().unwrap()).sum();
        assert_eq!(bus.delivered(), accepted);
        assert_eq!(bus.dropped_stale(), accepted, "round {round}: evaporated frames are counted");
        assert_eq!(bus.rejected(), u64::from(SENDERS) * 64);
    }
}

/// Delivery invariant 2: crash state and crash epoch belong to the
/// *node*, not to the endpoint that happens to be plugged in.
#[test]
fn crash_state_and_epoch_survive_endpoint_reregistration() {
    let bus: LiveBus<u32> = LiveBus::new();
    let a = bus.register(n(0));
    let b = bus.register(n(1));
    bus.crash(n(1));
    drop(b);
    // Still crashed with nobody plugged in, and after plugging back in.
    assert!(bus.is_crashed(n(1)));
    let b = bus.register(n(1));
    assert!(bus.is_crashed(n(1)));
    assert!(!a.send(n(1), 1), "a re-registered endpoint of a crashed node stays dead");
    assert!(!b.send(n(0), 2));
    bus.recover(n(1));
    assert!(a.send(n(1), 3));
    // A second crash must invalidate that frame: the new endpoint
    // carries the node's epoch on, it does not restart from zero.
    bus.crash(n(1));
    bus.recover(n(1));
    assert!(b.try_recv().is_none());
    assert_eq!(bus.dropped_stale(), 1);
    assert!(a.send(n(1), 4));
    assert_eq!(b.try_recv().map(|e| e.msg), Some(4));
}

/// Delivery invariant 4: `delivered` counts at enqueue, and
/// `delivered − dropped_stale` is what receivers were actually handed.
#[test]
fn delivered_minus_dropped_stale_is_what_receivers_got() {
    let bus: LiveBus<u32> = LiveBus::new();
    let a = bus.register(n(0));
    let b = bus.register(n(1));
    let mut handed = 0u64;
    for i in 0..10 {
        assert!(a.send(n(1), i));
    }
    for _ in 0..4 {
        assert!(b.try_recv().is_some());
        handed += 1;
    }
    bus.crash(n(1)); // six frames die in the queue
    assert!(!a.send(n(1), 99));
    bus.recover(n(1));
    for i in 0..5 {
        assert!(a.send(n(1), i));
        assert!(b.send(n(0), i));
    }
    while b.try_recv().is_some() {
        handed += 1;
    }
    while a.try_recv().is_some() {
        handed += 1;
    }
    assert_eq!(bus.delivered(), 20);
    assert_eq!(bus.dropped_stale(), 6);
    assert_eq!(bus.rejected(), 1);
    assert_eq!(bus.delivered() - bus.dropped_stale(), handed);
}

/// No lost wake-up: 10^5 single-frame ping-pongs, each side blocking
/// for its one frame. A hand-off that can miss a wake-up (frame queued,
/// receiver parked anyway) shows here as a five-second stall.
#[test]
fn lost_wakeup_stress_ping_pong_never_times_out() {
    const ROUNDS: u64 = 100_000;
    let bus: LiveBus<u64> = LiveBus::new();
    let a = bus.register(n(0));
    let b = bus.register(n(1));
    let echo = thread::spawn(move || {
        for _ in 0..ROUNDS {
            let env = b.recv_timeout(Duration::from_secs(5)).expect("ping never arrived");
            assert!(b.send(env.from, env.msg));
        }
    });
    for i in 0..ROUNDS {
        assert!(a.send(n(1), i));
        let env = a.recv_timeout(Duration::from_secs(5)).expect("pong never arrived");
        assert_eq!(env.msg, i);
    }
    echo.join().unwrap();
    assert_eq!(bus.delivered(), 2 * ROUNDS);
    assert_eq!(bus.dropped_stale(), 0);
}

/// A frame the receiving test thread ignores.
const PROBE: u64 = u64::MAX;

/// Sends probes to `node` until one finds its owner parked — that is,
/// costs a wake-up. A receiver parks only on an empty mailbox, so when
/// this returns (and `tx` is the only sender) the owner holds exactly
/// that one probe and will park again once it has taken it.
fn send_until_woken(bus: &LiveBus<u64>, tx: &LiveEndpoint<u64>, node: NodeId) {
    loop {
        let before = bus.wakes();
        assert!(tx.send(node, PROBE));
        match bus.wakes() - before {
            0 => thread::yield_now(),
            1 => return,
            more => panic!("one send issued {more} wake-ups"),
        }
    }
}

/// What a send costs: a wake-up only when the owner is actually parked.
/// N sends to an owner that is not receiving issue none; a send to a
/// parked owner issues exactly one, and the frame is not lost.
#[test]
fn wake_accounting_notifies_only_a_parked_receiver() {
    let bus: LiveBus<u64> = LiveBus::new();
    let tx = bus.register(n(0));
    let rx = bus.register(n(1));
    for i in 0..1_000 {
        assert!(tx.send(n(1), i));
    }
    assert_eq!(bus.wakes(), 0, "nobody was parked");
    let mut got = 0u64;
    while rx.try_recv().is_some() {
        got += 1;
    }
    assert_eq!(got, 1_000);
    assert!(rx.recv_timeout(Duration::ZERO).is_none(), "an expired deadline never parks");
    assert_eq!(bus.wakes(), 0);

    // An owner that blocks on its empty mailbox, over and over.
    let probes = parked_handoffs(&bus, &tx, rx, 200);
    assert_eq!(bus.delivered(), 1_000 + probes + 1, "every probe sent was received");
}

/// `rounds` hand-offs to an owner that blocks on its empty mailbox over
/// and over: each one must find it parked and cost exactly one wake-up.
/// Returns how many probes the owner received.
fn parked_handoffs(
    bus: &LiveBus<u64>,
    tx: &LiveEndpoint<u64>,
    rx: LiveEndpoint<u64>,
    rounds: u64,
) -> u64 {
    let node = rx.node();
    let owner = thread::spawn(move || {
        let mut probes = 0u64;
        loop {
            match rx.recv_timeout(Duration::from_secs(60)).expect("a wake-up was lost").msg {
                PROBE => probes += 1,
                _ => return probes,
            }
        }
    });
    let before = bus.wakes();
    for _ in 0..rounds {
        send_until_woken(bus, tx, node);
    }
    assert_eq!(bus.wakes() - before, rounds, "each parked hand-off is exactly one wake-up");
    assert!(tx.send(node, 0));
    owner.join().unwrap()
}

// ---------------------------------------------------------------------
// The turn: an accepted send buys the sender one yield before it parks.
// ---------------------------------------------------------------------

/// An endpoint that only receives has no turn to give: it makes no
/// system call but its park, and every hand-off to it costs the one
/// wake-up it always did.
#[test]
fn a_receiver_that_never_sent_never_yields() {
    let bus: LiveBus<u64> = LiveBus::new();
    let tx = bus.register(n(0));
    let rx = bus.register(n(1));
    let probes = parked_handoffs(&bus, &tx, rx, 200);
    assert_eq!(bus.yields(), 0, "the receiver never sent, the sender never received");
    assert_eq!(bus.delivered(), probes + 1);
}

/// The turn is a flag, not a count, and only an *accepted* send sets
/// it: `yields()` ≤ accepted sends, per endpoint and under load.
#[test]
fn an_accepted_send_buys_at_most_one_yield() {
    const BRIEFLY: Duration = Duration::from_millis(1);
    let bus: LiveBus<u64> = LiveBus::new();
    let a = bus.register(n(0));
    let b = bus.register(n(1));
    let c = bus.register(n(2));

    // Rejected sends — crashed, partitioned, unregistered peer — buy none.
    bus.crash(n(1));
    bus.split(&[&[n(0)], &[n(2)]]);
    assert!(!a.send(n(1), 1) && !a.send(n(2), 2) && !a.send(n(9), 3));
    assert!(a.recv_timeout(BRIEFLY).is_none());
    assert_eq!((bus.rejected(), bus.yields()), (3, 0));
    bus.recover(n(1));
    bus.heal();

    // Three accepted sends, three empty receives: one yield.
    for i in 0..3 {
        assert!(a.send(n(1), i));
    }
    for _ in 0..3 {
        assert!(a.recv_timeout(BRIEFLY).is_none());
    }
    assert_eq!(bus.yields(), 1, "the first empty receive spends the turn, the next two park");
    drop((a, b, c));

    // Four concurrent ping-pong pairs on the one bus.
    const ROUNDS: u64 = 5_000;
    let (yields_before, sends_before) = (bus.yields(), bus.delivered());
    let threads: Vec<_> = (0..4u32)
        .flat_map(|pair| {
            let (ping, pong) = (bus.register(n(10 + pair)), bus.register(n(20 + pair)));
            let echo = thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let env = pong.recv_timeout(Duration::from_secs(5)).expect("ping");
                    assert!(pong.send(env.from, env.msg));
                }
            });
            let caller = thread::spawn(move || {
                for i in 0..ROUNDS {
                    assert!(ping.send(n(20 + pair), i));
                    let env = ping.recv_timeout(Duration::from_secs(5)).expect("pong");
                    assert_eq!(env.msg, i);
                }
            });
            [echo, caller]
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let sends = bus.delivered() - sends_before;
    assert_eq!(sends, 8 * ROUNDS);
    assert!(bus.yields() - yields_before <= sends, "more yields than accepted sends");
}

/// A yield that finds nothing changes nothing: the receiver parks as it
/// always did and the late reply costs the one wake-up. The peer
/// answers only once the receiver is parked (`send_until_woken`), so
/// the turn was spent before the first park whichever frame came first.
#[test]
fn a_fruitless_yield_still_parks_and_is_woken() {
    let bus: LiveBus<u64> = LiveBus::new();
    let caller = bus.register(n(0));
    let peer = bus.register(n(1));
    let waiting = thread::spawn(move || {
        assert!(caller.send(n(1), 7));
        loop {
            match caller.recv_timeout(Duration::from_secs(60)).expect("a wake-up was lost").msg {
                PROBE => continue,
                reply => return reply,
            }
        }
    });
    // The peer polls, so it is never parked itself: the one wake-up
    // counted below is the caller's.
    let request = loop {
        match peer.try_recv() {
            Some(env) => break env.msg,
            None => thread::yield_now(),
        }
    };
    assert_eq!(request, 7);
    send_until_woken(&bus, &peer, n(0));
    assert_eq!(bus.wakes(), 1);
    assert_eq!(bus.yields(), 1, "one accepted send, one yield, then parks only");
    assert!(peer.send(n(0), 8));
    assert_eq!(waiting.join().unwrap(), 8, "the late reply is delivered");
    assert_eq!(bus.yields(), 1);
}

/// A receiver that owes a turn when `close()` lands — before its
/// receive, inside its yield, or after it parked — gets `None`: the
/// mailbox is looked at again after the yield, under the lock `close()`
/// sets the flag under. A receive with no deadline that missed the
/// close would hang here for good.
#[test]
fn close_reaches_a_receiver_inside_its_yield() {
    for round in 0..200u32 {
        let bus: LiveBus<u64> = LiveBus::new();
        let rx = bus.register(n(0));
        let _sink = bus.register(n(1));
        let gate = Arc::new(Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let receiver = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.wait();
                assert!(rx.send(n(1), 1));
                done_tx.send(rx.recv_deadline(None)).unwrap();
            })
        };
        gate.wait();
        for _ in 0..round % 8 {
            thread::yield_now();
        }
        bus.close();
        let got = done_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("round {round}: close() missed a yielding receiver"));
        assert!(got.is_none());
        receiver.join().unwrap();
        assert!(bus.yields() <= 1);
    }
}

/// `close()` is how a cell stops: a receiver parked with a long timeout
/// comes back at once, and a closed, empty mailbox never blocks again —
/// though what is already queued is still handed over.
#[test]
#[expect(clippy::disallowed_methods, reason = "the test times how fast a closed mailbox returns")]
fn close_wakes_parked_receivers_and_stops_blocking() {
    let bus: LiveBus<u64> = LiveBus::new();
    let tx = bus.register(n(0));
    let rx = bus.register(n(1));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let parked = thread::spawn(move || {
        while rx.recv_timeout(Duration::from_secs(60)).is_some() {}
        done_tx.send(()).unwrap();
        rx
    });
    // The owner was parked when the last probe went out; it takes that
    // one frame and parks again for its 60 s.
    send_until_woken(&bus, &tx, n(1));
    bus.close();
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("a parked receiver must return within the watchdog of close()");
    let rx = parked.join().unwrap();

    // Closed and empty: returns at once, whatever the timeout.
    let t0 = Instant::now();
    assert!(rx.recv_timeout(Duration::from_secs(60)).is_none());
    assert!(rx.recv_timeout(Duration::MAX).is_none());
    // Sends still flow, and queued frames are still handed over.
    assert!(tx.send(n(1), 7));
    assert_eq!(rx.recv_timeout(Duration::from_secs(60)).map(|e| e.msg), Some(7));
    assert!(t0.elapsed() < Duration::from_secs(2));
}
