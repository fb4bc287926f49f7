//! The untraced run: set-up, the timed windows, the final content check,
//! and the end-to-end metrics they yield.

use std::time::{Duration, Instant};

use deceit_core::ProtocolHost;
use deceit_nfs::NfsService;
use deceit_runtime::{ClusterRuntime, RuntimeClient, RuntimeConfig};

use crate::loadgen::{closed_loop, Driver, Until};
use crate::reference::{Reference, NOMINAL_NS};
use crate::stats::{median, median_of_reps, percentile};
use crate::workload::{build_sessions, verify_final, Session, Spec, SERVERS};

/// One step of the untraced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Closed loop, every session.
    Closed,
    /// Closed loop, the first session alone.
    Solo,
    /// A spare cell is brought up beside the measured one, timed, and
    /// shut down again.
    SetUp,
}

/// How a run of `seconds` is divided. Every figure reported is a median
/// over its repetitions, each scaled to the host's nominal speed
/// ([`crate::reference`]), so neither a disturbed window nor a slow
/// episode of the host carries a run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `--quick`: one or two short repetitions per phase. Exercises every
    /// code path; the numbers are not comparable with a full run's.
    pub quick: bool,
    pub seconds: f64,
    /// Cells brought up (start, file set, settle, warm-up) to measure
    /// `setup_s`: the one the windows run against, then spares at even
    /// intervals through the run.
    pub setups: usize,
    pub closed: (usize, Duration),
    pub solo: (usize, Duration),
}

impl Plan {
    pub fn new(seconds: f64, quick: bool) -> Plan {
        // `n` windows sharing `share` of the run.
        let windows =
            |n: usize, share: f64| (n, Duration::from_secs_f64(seconds * share / n as f64));
        if quick {
            Plan { quick, seconds, setups: 1, closed: windows(2, 0.75), solo: windows(1, 0.25) }
        } else {
            // Many short windows, not a few long ones. The host is a
            // shared one: the vCPU changes speed for seconds at a time,
            // and a neighbour can take every other 4 ms slice of it for
            // a few hundred ms. A window of a quarter second mostly sits
            // in one speed state, which the readings of the reference
            // around it then take out; a median over eighty steps over
            // the windows a state change or a neighbour spoilt. Three
            // quarters of the run go where three of the four timed
            // metrics come from.
            Plan { quick, seconds, setups: 7, closed: windows(80, 0.75), solo: windows(60, 0.25) }
        }
    }

    /// Every step after the first set-up, each kind at even intervals:
    /// step `j` of `n` sits at `(j + ½) / n` of the way through.
    pub fn schedule(&self) -> Vec<Phase> {
        let place =
            |n: usize, phase: Phase| (0..n).map(move |j| ((j as f64 + 0.5) / n as f64, phase));
        let mut all: Vec<(f64, Phase)> = place(self.closed.0, Phase::Closed)
            .chain(place(self.solo.0, Phase::Solo))
            .chain(place(self.setups - 1, Phase::SetUp))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all.into_iter().map(|(_, phase)| phase).collect()
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The per-repetition values `value` is the median of (empty for
    /// single measurements).
    pub reps: Vec<f64>,
}

impl Metric {
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, reps: Vec::new() }
    }

    fn of_reps(
        name: &'static str,
        unit: &'static str,
        reps: Vec<f64>,
        configured: usize,
    ) -> Result<Metric, String> {
        let value = median_of_reps(&reps, configured).map_err(|e| format!("{name}: {e}"))?;
        Ok(Metric { name, unit, value, reps })
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed operations, described.
    pub failures: Vec<String>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// A running cell with the workload's file set in place and a client
/// session per driver.
pub struct Cell<S: NfsService + ProtocolHost + Send + Sync + 'static> {
    pub rt: ClusterRuntime<S>,
    pub drivers: Vec<Driver>,
    /// A session for set-up and verification traffic.
    pub admin: RuntimeClient,
    /// Requests set-up itself issued (file creation, parameters, fill).
    pub setup_ops: u64,
}

/// Brings a cell up on `host` — whatever `ClusterRuntime` the caller
/// built — to the point where the first timed request could be sent:
/// file set created, deferred work settled, warm-up run.
pub fn bring_up<S: NfsService + ProtocolHost + Send + Sync + 'static>(
    rt: ClusterRuntime<S>,
    spec: &Spec,
    seed: u64,
) -> Result<Cell<S>, String> {
    let mut admin = rt.client_homed(rt.server_ids()[SERVERS - 1]);
    let root = admin.root();
    let (sessions, setup_ops) = build_sessions(&mut admin, root, spec, seed)?;
    // Replicas up to `min_replicas` are generated as deferred work.
    rt.settle();
    let mut drivers: Vec<Driver> =
        sessions.into_iter().map(|s| Driver::new(rt.client_homed(s.home()), s)).collect();
    closed_loop(&mut drivers, Until::Ops(spec.warmup_ops), None);
    Ok(Cell { rt, drivers, admin, setup_ops })
}

/// The cell every end-to-end number is measured on: the stock stack
/// with its stock configuration.
pub fn plain_cell(spec: &Spec, seed: u64) -> Result<Cell<deceit_nfs::NfsServer>, String> {
    bring_up(ClusterRuntime::start(RuntimeConfig::new(SERVERS)), spec, seed)
}

/// After the last phase: settle, then check every file through every
/// server against the last acknowledged write.
pub fn final_check<S: NfsService + ProtocolHost + Send + Sync + 'static>(
    cell: &mut Cell<S>,
    seed: u64,
    out: &mut Outcome,
) {
    cell.rt.settle();
    let sessions: Vec<&Session> = cell.drivers.iter().map(|d| &d.session).collect();
    let (attempted, failures) = verify_final(&mut cell.admin, &sessions, seed);
    out.attempted += attempted;
    failures.into_iter().for_each(|why| out.fail(why));
}

/// `--trace 0`: every end-to-end metric, from untraced runs on the plain
/// cell.
pub fn run_end_to_end(spec: &Spec, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Every step is bracketed by two readings of the reference, and what
    // it measured is scaled to the host's nominal speed.
    let reference = Reference::start();
    let mut before = reference.handoff_ns();
    let mut speeds = Vec::new();
    let mut speed_since = |before: &mut f64| {
        let after = reference.handoff_ns();
        let speed = Reference::speed(*before, after);
        *before = after;
        speeds.push(speed);
        speed
    };

    let t0 = Instant::now();
    let mut cell = plain_cell(spec, seed)?;
    let secs = t0.elapsed().as_secs_f64();
    let mut setup_secs = vec![secs * speed_since(&mut before)];

    // The kinds of step are interleaved, each kind spread evenly over the
    // whole run: were they run as blocks, a host episode a few seconds
    // long could own every repetition of the shortest block — set-up,
    // a second or two in all, above all.
    let (mut ops, mut p50, mut p99, mut solo) = (vec![], vec![], vec![], vec![]);
    let mut samples = 0;
    for phase in plan.schedule() {
        match phase {
            Phase::Closed => {
                let mut rep = closed_loop(&mut cell.drivers, Until::Elapsed(plan.closed.1), None);
                let speed = speed_since(&mut before);
                if !rep.lat_ns.is_empty() {
                    samples += rep.lat_ns.len();
                    ops.push(rep.lat_ns.len() as f64 / rep.secs / speed);
                    p50.push(percentile(&mut rep.lat_ns, 50.0) as f64 / 1e3 * speed);
                    p99.push(percentile(&mut rep.lat_ns, 99.0) as f64 / 1e3 * speed);
                }
            }
            // One synchronous client: no request of another session to
            // queue behind.
            Phase::Solo => {
                let mut rep =
                    closed_loop(&mut cell.drivers[..1], Until::Elapsed(plan.solo.1), None);
                let speed = speed_since(&mut before);
                if !rep.lat_ns.is_empty() {
                    solo.push(percentile(&mut rep.lat_ns, 50.0) as f64 / 1e3 * speed);
                }
            }
            // Set-up's cost is a metric, and one sample of a quarter
            // second is mostly which state the host was in. The measured
            // cell sits idle meanwhile.
            Phase::SetUp => {
                let t0 = Instant::now();
                let spare = plain_cell(spec, seed)?;
                let secs = t0.elapsed().as_secs_f64();
                setup_secs.push(secs * speed_since(&mut before));
                retire(spare, &mut out);
                // Shutting the spare down is not part of the next step.
                before = reference.handoff_ns();
            }
        }
    }

    final_check(&mut cell, seed, &mut out);
    let off = speeds.iter().filter(|s| (*s - 1.0).abs() > 0.1).count();
    out.notes.push(format!(
        "host speed: median {:.3} of nominal (reference hand-off {NOMINAL_NS} ns), range {:.2}-{:.2}; {off} of {} steps ran more than 10% off nominal; every figure above is scaled to nominal",
        median(&speeds),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(0.0, f64::max),
        speeds.len(),
    ));
    out.notes.push(format!(
        "closed-loop samples: {samples} over {} repetitions ({} beyond each p99)",
        plan.closed.0,
        samples / plan.closed.0.max(1) / 100,
    ));
    retire(cell, &mut out);

    out.metrics = vec![
        Metric::of_reps("setup_s", "s", setup_secs, plan.setups)?,
        Metric::of_reps("ops_per_s", "ops/s", ops, plan.closed.0)?,
        Metric::of_reps("p50_us", "us", p50, plan.closed.0)?,
        Metric::of_reps("p99_us", "us", p99, plan.closed.0)?,
        Metric::of_reps("solo_p50_us", "us", solo, plan.solo.0)?,
    ];
    Ok(out)
}

/// Folds a cell's operation counts into `out` and shuts it down (joins
/// every server thread and the pump).
pub fn retire<S: NfsService + ProtocolHost + Send + Sync + 'static>(
    cell: Cell<S>,
    out: &mut Outcome,
) -> S {
    let Cell { rt, drivers, admin, setup_ops } = cell;
    out.attempted += setup_ops;
    for mut d in drivers {
        out.attempted += d.attempted;
        out.failed += d.failed;
        out.failures.append(&mut d.failures);
        // Dropping the driver closes its endpoint on the cell's bus.
    }
    drop(admin);
    rt.shutdown().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_every_kind_of_step_over_the_whole_run() {
        let plan = Plan::new(28.0, false);
        let order = plan.schedule();
        assert_eq!(order.len(), plan.closed.0 + plan.solo.0 + plan.setups - 1);
        // Every quarter of the run holds its share of every kind.
        for quarter in order.chunks(order.len().div_ceil(4)) {
            let count = |want: Phase| quarter.iter().filter(|p| **p == want).count();
            assert!((19..=21).contains(&count(Phase::Closed)), "{quarter:?}");
            assert!((14..=16).contains(&count(Phase::Solo)), "{quarter:?}");
            assert!((1..=2).contains(&count(Phase::SetUp)), "{quarter:?}");
        }
        // The windows add up to the run length asked for.
        let total = plan.closed.0 as f64 * plan.closed.1.as_secs_f64()
            + plan.solo.0 as f64 * plan.solo.1.as_secs_f64();
        assert!((total - 28.0).abs() < 1e-6, "{total}");
    }
}
