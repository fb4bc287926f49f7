//! The host's speed, read off a yardstick the benchmark owns.
//!
//! The virtual CPU this runs on changes speed under it. Window by window
//! a run shows discrete states: the usual one, a slow one (everything
//! takes about 1.36 × as long) that lasts from a second to the better
//! part of a minute, and a fast one (0.79 ×) that comes for a second or
//! two. In a busy hour more than half of a run can sit in the slow state,
//! and no order statistic over its windows can tell which state is the
//! usual one. So every timed window is bracketed by two readings of a
//! fixed piece of work — a token handed to a second thread and back over
//! std channels, the same kind of work a request is made of: wake-ups and
//! context switches on the one CPU the process is pinned to — and the
//! window's figures are scaled by how far those readings were off
//! [`NOMINAL_NS`]. The cell's requests track the yardstick within 1 %
//! between the fast and the usual state and within 0–7 % in the slow one
//! (measured per workload; the README has the table). The yardstick
//! touches no code of the system under test, so no change to the system
//! can move it.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::percentile;

/// What one hand-off takes, in ns, in the usual state of the box the
/// baseline was taken on. It only fixes the unit: every reported time is
/// what the request would take on a host on which the hand-off takes
/// this long.
pub const NOMINAL_NS: f64 = 3375.0;

/// Hand-offs per reading: ~3.5 ms, and a median over a thousand shrugs
/// off a 4 ms slice taken by a neighbour.
const ROUNDS: usize = 1000;

pub struct Reference {
    to: Option<Sender<()>>,
    from: Receiver<()>,
    echo: Option<JoinHandle<()>>,
}

impl Reference {
    /// Starts the echo thread. Call after pinning: the thread inherits
    /// the caller's CPU.
    pub fn start() -> Reference {
        let (to, theirs) = channel::<()>();
        let (back, from) = channel::<()>();
        let echo =
            std::thread::spawn(move || while theirs.recv().is_ok() && back.send(()).is_ok() {});
        Reference { to: Some(to), from, echo: Some(echo) }
    }

    /// One reading: the median hand-off over [`ROUNDS`], in ns.
    pub fn handoff_ns(&self) -> f64 {
        let to = self.to.as_ref().expect("sender lives until drop");
        let mut each = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            to.send(()).expect("echo thread is alive");
            self.from.recv().expect("echo thread is alive");
            each.push(t0.elapsed().as_nanos() as u64);
        }
        percentile(&mut each, 50.0) as f64
    }

    /// How fast the host ran between two readings, as a share of nominal:
    /// above 1 is fast. A duration measured in between, times this, is
    /// the duration at nominal speed; a rate is divided by it.
    pub fn speed(before_ns: f64, after_ns: f64) -> f64 {
        NOMINAL_NS / ((before_ns + after_ns) / 2.0)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing the channel ends the echo loop.
        self.to = None;
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_scales_times_back_to_nominal() {
        // A host running a third slow: the hand-off takes 4500 ns and a
        // 12 µs request is a 9 µs request at nominal speed.
        let slow = Reference::speed(4500.0, 4500.0);
        assert!((12.0 * slow - 9.0).abs() < 1e-9);
        // The state changed inside the window: the two readings average.
        assert_eq!(Reference::speed(NOMINAL_NS * 0.5, NOMINAL_NS * 1.5), 1.0);
        // A rate is divided: 60 000 ops/s on the slow host are 80 000.
        assert!((60_000.0 / slow - 80_000.0).abs() < 1e-6);
    }

    #[test]
    fn the_yardstick_reads_and_shuts_down() {
        let r = Reference::start();
        let ns = r.handoff_ns();
        assert!(ns > 100.0 && ns < 10_000_000.0, "{ns}");
        drop(r); // joins the echo thread
    }
}
