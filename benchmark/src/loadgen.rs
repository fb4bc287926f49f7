//! The load generators: a closed loop (each session sends its next
//! request when the previous reply arrives) and an open loop (requests
//! are due on a Poisson schedule whether or not the cell keeps up).

use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use deceit_net::rpc::CallId;
use deceit_runtime::RuntimeClient;

use crate::gen::Rng;
use crate::trace::{Span, SpanKind, Tracer};
use crate::workload::{Check, Session};

/// Requests a pipelined session keeps in flight at most — the slot
/// table of a classic NFS client. Arrivals beyond it wait their turn,
/// and the wait counts: latency runs from when a request was *due*.
pub const OPEN_WINDOW: usize = 16;

/// One client: its connection to the cell and its request stream.
pub struct Driver {
    pub client: RuntimeClient,
    pub session: Session,
    /// Operations attempted and failed so far, over every phase.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Driver {
    pub fn new(client: RuntimeClient, session: Session) -> Self {
        Driver { client, session, attempted: 0, failed: 0, failures: Vec::new() }
    }

    fn count(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// What one closed-loop window measured, all sessions together.
pub struct ClosedRep {
    /// Per-request latency, ns, of every request answered in the window.
    pub lat_ns: Vec<u64>,
    pub secs: f64,
}

/// How a closed-loop window ends.
#[derive(Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    /// Each session runs this many requests (warm-up: fixed work, so its
    /// duration is a measurement and not a setting).
    Ops(usize),
}

/// Runs every driver closed-loop, one thread each, released together.
/// With a tracer, each request is a root span and its id is published
/// to the session's home server before it is sent.
pub fn closed_loop(drivers: &mut [Driver], until: Until, tracer: Option<&Tracer>) -> ClosedRep {
    let gate = Barrier::new(drivers.len());
    let started = Instant::now();
    let per_session: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(i, d)| {
                let gate = &gate;
                scope.spawn(move || {
                    let home = d.session.home();
                    let mut lat = Vec::with_capacity(1 << 16);
                    let mut roots = Vec::new();
                    let mut sent = 0;
                    // Root span ids: session in the top bits, never 0.
                    let mut op_id = ((i as u64 + 1) << 48) | d.attempted;
                    gate.wait();
                    let begin = Instant::now();
                    loop {
                        let op = d.session.next();
                        op_id += 1;
                        let span_start = tracer.map(|t| {
                            t.publish(home, op_id);
                            t.now()
                        });
                        let t0 = Instant::now();
                        let reply = d.client.call(op.req);
                        let t1 = Instant::now();
                        if let (Some(t), Some(start)) = (tracer, span_start) {
                            roots.push(Span {
                                kind: SpanKind::Call,
                                op: op_id,
                                start,
                                end: t.now(),
                                hit: reply.is_ok(),
                            });
                        }
                        let outcome = d.session.complete(op.check, reply);
                        let ok = outcome.is_ok();
                        d.count(outcome);
                        sent += 1;
                        // A reply that lands after the window is not
                        // part of it.
                        if matches!(until, Until::Elapsed(window) if t1 - begin > window) {
                            break;
                        }
                        if ok {
                            lat.push((t1 - t0).as_nanos() as u64);
                        }
                        if matches!(until, Until::Ops(n) if sent >= n) {
                            break;
                        }
                    }
                    if let Some(t) = tracer {
                        t.extend(roots);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
    });
    let secs = match until {
        Until::Elapsed(window) => window.as_secs_f64(),
        Until::Ops(_) => started.elapsed().as_secs_f64(),
    };
    ClosedRep { lat_ns: per_session.into_iter().flatten().collect(), secs }
}

/// What one open-loop window measured, all sessions together.
#[derive(Default)]
pub struct OpenRep {
    /// Per request: completion minus *intended* send time, ns.
    pub lat_ns: Vec<u64>,
    /// Per request: actual minus intended send time, ns — how far the
    /// generator itself ran behind.
    pub late_ns: Vec<u64>,
    /// Requests due inside the window that had no reply when it closed.
    pub backlog_end: u64,
}

/// The arrival schedule of one open-loop session, separated from the
/// transport so the timing rule can be tested against a fake one.
pub struct OpenSchedule {
    rng: Rng,
    mean_gap_ns: f64,
    /// Next intended send, ns after the window opened.
    pub next_due_ns: u64,
}

impl OpenSchedule {
    pub fn new(seed: u64, stream: u64, rate_per_s: f64) -> Self {
        let mut s = OpenSchedule {
            rng: Rng::new(seed, stream),
            mean_gap_ns: 1e9 / rate_per_s,
            next_due_ns: 0,
        };
        s.advance();
        s
    }

    pub fn advance(&mut self) {
        self.next_due_ns += self.rng.exp_gap_ns(self.mean_gap_ns);
    }
}

/// The part of a session the open loop needs; the live implementation
/// is [`Driver`], the test one a scripted server with a stall in it.
pub trait Pipelined {
    type Ticket;
    fn send(&mut self) -> Self::Ticket;
    /// Blocks until the reply for `ticket` (the oldest in flight) is in.
    fn finish(&mut self, ticket: Self::Ticket);
}

impl Pipelined for Driver {
    type Ticket = (Option<CallId>, Check);

    fn send(&mut self) -> Self::Ticket {
        let op = self.session.next();
        match self.client.submit(op.req) {
            Ok(call) => (Some(call), op.check),
            Err(e) => {
                let outcome = self.session.complete(op.check, Err(e));
                self.count(outcome);
                (None, op.check)
            }
        }
    }

    fn finish(&mut self, (call, check): Self::Ticket) {
        if let Some(call) = call {
            let reply = self.client.wait(call);
            let outcome = self.session.complete(check, reply);
            self.count(outcome);
        }
    }
}

/// Time as the open loop sees it, in ns since its window opened: the
/// wall clock live, a scripted one under test.
pub trait Clock {
    fn now(&self) -> u64;
    fn wait_until(&self, due_ns: u64);
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Waits without giving up the core for longer than the wait:
    /// `sleep` overshoots by the timer slack (tens of µs, the size of a
    /// whole request here), so only long gaps sleep and the rest yields.
    fn wait_until(&self, due_ns: u64) {
        loop {
            let now = self.now();
            if now >= due_ns {
                return;
            }
            if due_ns - now > 400_000 {
                std::thread::sleep(Duration::from_nanos(due_ns - now - 200_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One session's open loop. Requests become due on `schedule`; each is
/// sent as soon as it is due and a window slot is free, and is timed
/// from the moment it was due — so a stall is charged to every request
/// that queued behind it, not just to the one that hit it.
pub fn open_session<P: Pipelined>(
    target: &mut P,
    schedule: &mut OpenSchedule,
    window_ns: u64,
    clock: &impl Clock,
) -> OpenRep {
    let mut rep = OpenRep::default();
    let mut in_flight: VecDeque<(P::Ticket, u64)> = VecDeque::with_capacity(OPEN_WINDOW);
    loop {
        let now = clock.now();
        if now >= window_ns {
            break;
        }
        if schedule.next_due_ns <= now && in_flight.len() < OPEN_WINDOW {
            let due = schedule.next_due_ns;
            rep.late_ns.push(now - due);
            in_flight.push_back((target.send(), due));
            schedule.advance();
        } else if let Some((ticket, due)) = in_flight.pop_front() {
            target.finish(ticket);
            rep.lat_ns.push(clock.now().saturating_sub(due));
        } else {
            clock.wait_until(schedule.next_due_ns.min(window_ns));
        }
    }
    // The window is closed: whatever was due in it and has no reply yet
    // is the backlog. It is still owed a reply and a latency.
    let mut unsent = 0;
    while schedule.next_due_ns < window_ns {
        unsent += 1;
        let due = schedule.next_due_ns;
        schedule.advance();
        if in_flight.len() == OPEN_WINDOW {
            let (ticket, d) = in_flight.pop_front().expect("window is full");
            target.finish(ticket);
            rep.lat_ns.push(clock.now().saturating_sub(d));
        }
        rep.late_ns.push(clock.now().saturating_sub(due));
        in_flight.push_back((target.send(), due));
    }
    rep.backlog_end = unsent + in_flight.len() as u64;
    for (ticket, due) in in_flight {
        target.finish(ticket);
        rep.lat_ns.push(clock.now().saturating_sub(due));
    }
    rep
}

/// Runs every driver open-loop for `window`, splitting `rate_per_s`
/// evenly between them.
pub fn open_loop(
    drivers: &mut [Driver],
    rate_per_s: f64,
    window: Duration,
    seed: u64,
    rep_index: u64,
) -> OpenRep {
    let gate = Barrier::new(drivers.len());
    let share = rate_per_s / drivers.len() as f64;
    let reps: Vec<OpenRep> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(i, d)| {
                let gate = &gate;
                scope.spawn(move || {
                    let mut schedule =
                        OpenSchedule::new(seed, 0x1000 + rep_index * 16 + i as u64, share);
                    gate.wait();
                    open_session(
                        d,
                        &mut schedule,
                        window.as_nanos() as u64,
                        &WallClock(Instant::now()),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
    });
    let mut all = OpenRep::default();
    for r in reps {
        all.lat_ns.extend(r.lat_ns);
        all.late_ns.extend(r.late_ns);
        all.backlog_end += r.backlog_end;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that moves only when the loop waits — and by 1 µs per
    /// reading, the cost of looking.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.0.set(self.0.get() + 1_000);
            self.0.get()
        }

        fn wait_until(&self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    /// A single-server queue on the fake clock: each request takes
    /// `service` ns, except that the server is frozen during `stall`.
    struct FakeServer<'a> {
        clock: &'a FakeClock,
        service: u64,
        stall: (u64, u64),
        free_at: u64,
    }

    impl Pipelined for FakeServer<'_> {
        type Ticket = u64;

        fn send(&mut self) -> u64 {
            let mut start = self.clock.0.get().max(self.free_at);
            if (self.stall.0..self.stall.1).contains(&start) {
                start = self.stall.1;
            }
            self.free_at = start + self.service;
            self.free_at
        }

        fn finish(&mut self, done_at: u64) {
            self.clock.wait_until(done_at);
        }
    }

    fn run(stall: (u64, u64)) -> OpenRep {
        let clock = FakeClock(Cell::new(0));
        let mut server = FakeServer { clock: &clock, service: 10_000, stall, free_at: 0 };
        // 20k req/s against a 100k req/s server: 20 % utilised.
        let mut schedule = OpenSchedule::new(11, 1, 20_000.0);
        open_session(&mut server, &mut schedule, 1_000_000_000, &clock)
    }

    #[test]
    fn open_loop_latency_runs_from_the_intended_send_time() {
        let mut calm = run((0, 0));
        let mut stalled = run((500_000_000, 520_000_000));
        assert_eq!(
            calm.lat_ns.len(),
            stalled.lat_ns.len(),
            "the schedule does not react to the server"
        );
        assert!(calm.lat_ns.len() > 19_000, "{}", calm.lat_ns.len());
        let calm_max = crate::stats::percentile(&mut calm.lat_ns, 100.0);
        assert!(calm_max < 150_000, "no stall, no queue: {calm_max}");

        // A 20 ms stall at 20k req/s delays ~400 requests by up to 20 ms
        // each — 2 % of the window, so the p99 must show it. A closed
        // loop would have recorded one slow request.
        let slow = stalled.lat_ns.iter().filter(|&&l| l > 1_000_000).count();
        assert!((350..600).contains(&slow), "{slow} requests saw the stall");
        let p99 = crate::stats::percentile(&mut stalled.lat_ns, 99.0);
        assert!(p99 > 5_000_000, "p99 {p99} ns hides the stall");
        let worst = crate::stats::percentile(&mut stalled.lat_ns, 100.0);
        assert!((19_000_000..22_000_000).contains(&worst), "worst {worst}");
        // The generator fell behind only while the window was full.
        let late = crate::stats::percentile(&mut stalled.late_ns, 100.0);
        assert!(late > 1_000_000 && late < 20_000_000, "{late}");
        assert!(stalled.backlog_end <= 2, "the queue drained long before the window closed");
    }

    #[test]
    fn a_saturated_server_shows_as_backlog() {
        let clock = FakeClock(Cell::new(0));
        // 50k req/s offered to a 10k req/s server.
        let mut server = FakeServer { clock: &clock, service: 100_000, stall: (0, 0), free_at: 0 };
        let mut schedule = OpenSchedule::new(3, 1, 50_000.0);
        let rep = open_session(&mut server, &mut schedule, 100_000_000, &clock);
        assert!(rep.backlog_end > 3_000, "{}", rep.backlog_end);
        assert_eq!(rep.lat_ns.len(), rep.late_ns.len(), "every due request is sent and answered");
    }
}
