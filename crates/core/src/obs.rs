//! Always-on observability: lock-free latency histograms, the protocol
//! flight recorder, and the protocol's event counters.
//!
//! Everything in this module stays on, in the simulator and in live
//! hosting alike:
//!
//! * [`AtomicHistogram`] — a fixed-footprint, log-bucketed (HDR-style)
//!   histogram of `u64` samples. Recording a sample costs at most two
//!   relaxed atomic read-modify-writes, and a zero one: no locks, no
//!   allocation, safe from any thread. A histogram never reads a clock:
//!   durations come from the caller's stamps, taken through the one
//!   counted clock (`deceit_sim::wall`).
//! * [`FlightRecorder`] — a bounded per-server ring of timestamped
//!   [`ProtocolEvent`]s, the one protocol event log. It never grows, so
//!   it stays on everywhere: Table 1 reads one update's events from it,
//!   and a failing differential test or storm dumps the last N events
//!   per server.
//! * [`Stat`] — the protocol's event counters (§6–7 count messages,
//!   token passes, forwarded reads and stabilize rounds): one fixed table
//!   of relaxed atomics, one slot per variant, so a bump is one
//!   uncontended `fetch_add` and a misspelt counter fails to compile.
//! * [`ObsCore`] — the cluster-owned bundle: flight recorder, pipeline
//!   drain-batch distribution and the counter table.

use std::sync::Mutex;

use deceit_net::NodeId;
use deceit_sim::atomic::RelaxedU64;
use deceit_sim::{SimTime, StatsSnapshot};

use crate::trace_events::ProtocolEvent;

/// Sub-bucket resolution: each power-of-two range splits into
/// `2^SUB_BITS` linear sub-buckets, bounding relative error at
/// `2^-(SUB_BITS+1)` ≈ 3%.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two group.
const SUB: usize = 1 << SUB_BITS;
/// Power-of-two groups above the exact range. Group `g` covers
/// `[2^(g+4), 2^(g+5))`, so 32 groups resolve values up to `2^36`
/// (~19 hours in microseconds); anything larger saturates into the
/// top bucket.
const GROUPS: usize = 32;
/// Total bucket count: 16 exact buckets for values 0..16, then
/// `GROUPS * SUB` log-linear buckets. At 8 bytes each the whole
/// histogram is ~4.3 KiB, allocated once.
pub const BUCKETS: usize = SUB + GROUPS * SUB;

/// The bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let group = msb - SUB_BITS as usize;
    let sub = ((v >> (msb - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
    (SUB + group * SUB + sub).min(BUCKETS - 1)
}

/// The representative (midpoint) value of a bucket, used when reading
/// percentiles back out.
fn bucket_value(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let group = (idx - SUB) / SUB;
    let sub = ((idx - SUB) % SUB) as u64;
    let msb = group + SUB_BITS as usize;
    let width = 1u64 << (msb - SUB_BITS as usize);
    (1u64 << msb) + sub * width + width / 2
}

/// A lock-free, fixed-footprint, log-bucketed histogram.
///
/// The record path is wait-free and pays for what a sample changes: one
/// relaxed `fetch_add` into the value's bucket, a second into the sum
/// only when the value is non-zero, and a `fetch_max` only when a plain
/// load shows the value raises the maximum. A zero — the uncontended
/// lock wait every request records — is one RMW; a typical sample two.
/// There is no count to keep: the buckets are the count.
/// Reads ([`AtomicHistogram::counts`]) copy the buckets out and compute
/// count and percentiles from the copy, so a snapshot taken mid-traffic
/// agrees with itself on how many samples it holds (only the sum races,
/// by at most the in-flight samples, which interval arithmetic
/// tolerates).
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[RelaxedU64]>,
    sum: RelaxedU64,
    max: RelaxedU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram (one fixed allocation).
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| RelaxedU64::new(0)).collect(),
            sum: RelaxedU64::new(0),
            max: RelaxedU64::new(0),
        }
    }

    /// Records one sample. Wait-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1);
        if v == 0 {
            return;
        }
        self.sum.fetch_add(v);
        if v > self.max.load() {
            self.max.fetch_max(v);
        }
    }

    /// Records a wall-clock duration in microseconds.
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of samples recorded so far: the buckets' total.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load()).sum()
    }

    /// An owned copy of the current bucket counts.
    pub fn counts(&self) -> HistCounts {
        HistCounts {
            buckets: self.buckets.iter().map(|b| b.load()).collect(),
            sum: self.sum.load(),
            max_hint: self.max.load(),
        }
    }

    /// Convenience: summary of everything recorded so far.
    pub fn summary(&self) -> HistSummary {
        self.counts().summary()
    }
}

/// An owned histogram snapshot: subtractable (for interval deltas) and
/// mergeable (for combining per-class or per-thread histograms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistCounts {
    buckets: Vec<u64>,
    sum: u64,
    /// Exact max for a from-zero snapshot; 0 after [`HistCounts::since`]
    /// (an interval max cannot be recovered, so the summary falls back
    /// to the top occupied bucket's representative).
    max_hint: u64,
}

impl HistCounts {
    /// An all-zero snapshot.
    pub fn zero() -> Self {
        HistCounts { buckets: vec![0; BUCKETS], sum: 0, max_hint: 0 }
    }

    /// Samples in this snapshot: its buckets' total.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The delta since an earlier snapshot of the same histogram:
    /// bucket-wise saturating subtraction, so a torn concurrent read can
    /// never underflow.
    pub fn since(&self, earlier: &HistCounts) -> HistCounts {
        HistCounts {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            max_hint: 0,
        }
    }

    /// Adds another snapshot's samples into this one.
    pub fn merge(&mut self, other: &HistCounts) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.sum += other.sum;
        self.max_hint = self.max_hint.max(other.max_hint);
    }

    /// The value at percentile `p` in `[0, 100]` (bucket representative;
    /// ≤ ~3% relative error), or 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(i);
            }
        }
        bucket_value(BUCKETS - 1)
    }

    /// Summary of this snapshot.
    pub fn summary(&self) -> HistSummary {
        let total = self.count();
        let top = self.buckets.iter().rposition(|&n| n > 0).map_or(0, bucket_value);
        HistSummary {
            count: total,
            mean: if total == 0 { 0.0 } else { self.sum as f64 / total as f64 },
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            max: if self.max_hint > 0 { self.max_hint } else { top },
        }
    }
}

/// A compact distribution summary read out of an [`AtomicHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples covered.
    pub count: u64,
    /// Arithmetic mean (exact: from the atomic sum, not the buckets).
    pub mean: f64,
    /// Median (bucket representative).
    pub p50: u64,
    /// 90th percentile (bucket representative).
    pub p90: u64,
    /// 99th percentile (bucket representative).
    pub p99: u64,
    /// Maximum (exact for from-zero snapshots, top-bucket representative
    /// for interval deltas).
    pub max: u64,
}

impl std::fmt::Display for HistSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Events retained per server by the flight recorder.
pub const FLIGHT_CAPACITY: usize = 256;

/// A bounded per-server ring buffer of timestamped protocol events: the
/// one protocol event log, in the simulator and live alike.
///
/// The flight recorder keeps only the last [`FLIGHT_CAPACITY`] events
/// each server *acted in*, overwriting the oldest, so it never grows and
/// stays on under full write load. Recording takes the acting server's
/// ring lock for a few stores, and a read never observes a torn event
/// because the entry is replaced whole under that lock. Table 1 reads the
/// events of one update across servers through [`FlightRecorder::mark`]
/// and [`FlightRecorder::since`].
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<Mutex<EventRing>>,
}

#[derive(Debug, Default)]
struct EventRing {
    buf: Vec<(SimTime, ProtocolEvent)>,
    /// Write cursor: index the next event lands in once full.
    next: usize,
    /// Events ever recorded (so wraparound is observable).
    total: u64,
}

impl EventRing {
    /// The retained events, oldest first. Until the ring fills, `next`
    /// is its length, so the split leaves nothing older.
    fn oldest_first(&self) -> impl Iterator<Item = &(SimTime, ProtocolEvent)> {
        let (newer, older) = self.buf.split_at(self.next.min(self.buf.len()));
        older.iter().chain(newer)
    }

    /// The events recorded after the ring's total was `mark`, or `None`
    /// if one of them has been overwritten.
    fn since(&self, mark: u64) -> Option<impl Iterator<Item = &(SimTime, ProtocolEvent)>> {
        let after = usize::try_from(self.total.saturating_sub(mark)).ok()?;
        let skip = self.buf.len().checked_sub(after)?;
        Some(self.oldest_first().skip(skip))
    }
}

impl FlightRecorder {
    /// A recorder with one ring per server.
    pub fn new(n_servers: usize) -> Self {
        FlightRecorder { rings: (0..n_servers).map(|_| Mutex::new(EventRing::default())).collect() }
    }

    /// The server's ring, or `None` for a server this recorder does not
    /// track.
    fn ring(&self, server: NodeId) -> Option<std::sync::MutexGuard<'_, EventRing>> {
        self.rings.get(server.index()).map(deceit_sim::leaf::lock)
    }

    /// Records one event against the server that performed it.
    pub fn record(&self, server: NodeId, at: SimTime, ev: ProtocolEvent) {
        let Some(mut ring) = self.ring(server) else {
            return;
        };
        if ring.buf.len() < FLIGHT_CAPACITY {
            ring.buf.push((at, ev));
        } else {
            let slot = ring.next;
            ring.buf[slot] = (at, ev);
        }
        ring.next = (ring.next + 1) % FLIGHT_CAPACITY;
        ring.total += 1;
    }

    /// Total events ever recorded for one server (including overwritten);
    /// 0 for a server this recorder does not track.
    pub fn total(&self, server: NodeId) -> u64 {
        self.ring(server).map_or(0, |ring| ring.total)
    }

    /// The retained events for one server, oldest first; none for a
    /// server this recorder does not track.
    pub fn events(&self, server: NodeId) -> Vec<(SimTime, ProtocolEvent)> {
        self.ring(server).map_or_else(Vec::new, |ring| ring.oldest_first().cloned().collect())
    }

    /// Every server's event total, in server order: the mark
    /// [`FlightRecorder::since`] reads from.
    pub fn mark(&self) -> Vec<u64> {
        self.rings.iter().map(|ring| deceit_sim::leaf::lock(ring).total).collect()
    }

    /// The events every server recorded after `mark`, merged by protocol
    /// time, ties in server order (and in recording order within one
    /// server). `None` if any ring has overwritten one of them: a partial
    /// log is never passed off as whole. Each ring's events and total are
    /// read under one lock acquisition, so a concurrent `record` cannot
    /// skew the count.
    pub fn since(&self, mark: &[u64]) -> Option<Vec<(SimTime, NodeId, ProtocolEvent)>> {
        let mut out = Vec::new();
        for (i, ring) in self.rings.iter().enumerate() {
            let ring = deceit_sim::leaf::lock(ring);
            let server = NodeId(i as u32);
            let from = mark.get(i).copied().unwrap_or(0);
            out.extend(ring.since(from)?.map(|(at, ev)| (*at, server, ev.clone())));
        }
        out.sort_by_key(|&(at, server, _)| (at, server));
        Some(out)
    }

    /// Number of servers this recorder tracks.
    pub fn servers(&self) -> usize {
        self.rings.len()
    }

    /// A human-readable dump of every server's retained events, newest
    /// last — what a failing differential test prints instead of a bare
    /// assert.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, ring) in self.rings.iter().enumerate() {
            let ring = deceit_sim::leaf::lock(ring);
            let _ = writeln!(
                out,
                "server {i}: {} protocol events recorded, last {} retained",
                ring.total,
                ring.buf.len()
            );
            for (at, ev) in ring.oldest_first() {
                let _ = writeln!(out, "  [{:>10}us] {ev:?}", at.as_micros());
            }
        }
        out
    }
}

/// Declares [`Stat`], its export names, and the list of every variant
/// in table order, from one list.
macro_rules! stats {
    ($($(#[$doc:meta])* $stat:ident => $name:literal,)*) => {
        /// One protocol event counter in [`ObsCore`]'s table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stat {
            $($(#[$doc])* $stat,)*
        }

        impl Stat {
            /// Every counter, in table order.
            pub const ALL: &'static [Stat] = &[$(Stat::$stat,)*];

            /// The counter's export name: a `/`-separated path, so
            /// related counters group when listed.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Stat::$stat => $name,)*
                }
            }
        }
    };
}

stats! {
    /// Reads served from a stable replica at the server they entered,
    /// or by the token holder itself, on the full read path.
    ReadsLocal => "core/reads/local",
    /// Reads forwarded from a server with no replica to a stable
    /// replica holder (§2.1).
    ReadsForwarded => "core/reads/forwarded",
    /// Reads forwarded to the token holder because the replica they met
    /// was unstable (§3.4).
    ReadsForwardedUnstable => "core/reads/forwarded_unstable",
    /// §3.6 stable-replica searches: no token holder was reachable.
    ReadsStableSearch => "core/reads/stable_search",
    /// Read repairs queued for a lagging unstable replica.
    RepairsScheduled => "core/reads/repairs_scheduled",
    /// Read repairs that caught a laggard up.
    Repairs => "core/reads/repairs",
    /// Read-lease validations that failed (version moved or lease
    /// revoked mid-copy) and pushed the read off the lock-free path.
    LeaseValidationFailures => "core/reads/lease_failures",
    /// Write tokens moved between servers (§3.3).
    TokenPasses => "core/token/passes",
    /// Tokens generated for a new version after the holder was lost.
    TokenGenerated => "core/token/generated",
    /// Updates passed to the token holder instead of taking the token
    /// (§3.3 optimization 2).
    UpdatesForwarded => "core/token/updates_forwarded",
    /// Conditional writes refused because the version moved.
    OccConflicts => "core/occ/conflicts",
    /// Outbound update streams drained by one group broadcast.
    PipelineBatches => "core/pipeline/batches",
    /// Updates those drains carried.
    PipelineBatchedUpdates => "core/pipeline/batched_updates",
    /// State transfers the pipeline's safety lane sent a lagging target.
    SafetyTransfers => "core/pipeline/safety_transfers",
    /// Stability rounds that marked a file group unstable (§3.4).
    UnstableRounds => "core/stability/unstable_rounds",
    /// Stability rounds that marked a file group stable again (§3.4).
    StableRounds => "core/stability/stable_rounds",
    /// Replicas generated to restore a file's replication level (§3.1).
    ReplicasGenerated => "core/replicas/generated",
    /// Obsolete replicas a stable-replica search destroyed (§3.6).
    ReplicasDestroyedObsolete => "core/replicas/destroyed_obsolete",
    /// Replicas destroyed by recovery or version deletion.
    RecoveryReplicasDestroyed => "core/recovery/replicas_destroyed",
    /// Segments created.
    Creates => "core/creates",
    /// Server crashes injected.
    Crashes => "cluster/crashes",
    /// Migrations that executed (§3.1 method 4): a forwarded read of a
    /// `migration`-marked file installed a replica at the reader.
    MigrationsExecuted => "core/replicas/migrated",
    /// Retirements the replication floor blocked: idle replicas existed
    /// beyond the LRU window, but deleting any would drop the file below
    /// its `min_replicas`.
    MigrationsVetoedFloor => "core/replicas/lru_vetoed_floor",
    /// Idle replicas retired by the §3.1 LRU extra-replica deletion.
    ReplicasRetired => "core/replicas/lru_deleted",
    /// Files the NFS envelope deallocated: no uplinked directory still
    /// links them (§5.2).
    GcDeallocated => "nfs/gc/deallocated",
    /// Link-count hints the NFS envelope corrected (§5.2).
    GcCorrected => "nfs/gc/corrected",
}

/// The cluster-owned observability bundle: always on, with no switch.
#[derive(Debug)]
pub struct ObsCore {
    /// Last-N protocol events per server.
    pub flight: FlightRecorder,
    /// Outbound-stream drain batch sizes (updates shipped per
    /// `PropagateStream` firing) — the pipeline's batching-window
    /// effectiveness in one distribution.
    pub drain_batch: AtomicHistogram,
    /// The counter table, one slot per [`Stat`], in [`Stat::ALL`] order.
    stats: [RelaxedU64; Stat::ALL.len()],
}

impl ObsCore {
    /// A bundle for a cell of `n_servers`.
    pub fn new(n_servers: usize) -> Self {
        ObsCore {
            flight: FlightRecorder::new(n_servers),
            drain_batch: AtomicHistogram::new(),
            stats: std::array::from_fn(|_| RelaxedU64::new(0)),
        }
    }

    /// Adds one to a counter. Wait-free; callable from any thread.
    pub fn bump(&self, stat: Stat) {
        self.add(stat, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, stat: Stat, n: u64) {
        self.stats[stat as usize].fetch_add(n);
    }

    /// A counter's current value.
    pub fn count(&self, stat: Stat) -> u64 {
        self.stats[stat as usize].load()
    }

    /// Every counter's name and value, in table order.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot { counters: Stat::ALL.iter().map(|&s| (s.name(), self.count(s))).collect() }
    }

    /// The replica-placement counters, as one record.
    pub fn placement_snapshot(&self) -> PlacementSnapshot {
        PlacementSnapshot {
            migrations_executed: self.count(Stat::MigrationsExecuted),
            migrations_vetoed_floor: self.count(Stat::MigrationsVetoedFloor),
            replicas_retired: self.count(Stat::ReplicasRetired),
        }
    }
}

/// An owned snapshot of the replica-placement counters, for export
/// (`ObsReport` / `obs_report.json`) and assertions: §3.1's migration
/// (method 4) and its LRU extra-replica deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementSnapshot {
    /// Migrations that executed: a replica was installed at a reader.
    pub migrations_executed: u64,
    /// Retirements the replication floor blocked.
    pub migrations_vetoed_floor: u64,
    /// Idle replicas retired by the LRU extra-replica deletion.
    pub replicas_retired: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SegmentId;

    #[test]
    fn stat_table_is_indexed_by_variant_and_names_are_unique() {
        for (i, &s) in Stat::ALL.iter().enumerate() {
            assert_eq!(s as usize, i, "{} sits out of table order", s.name());
        }
        let mut names: Vec<&str> = Stat::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stat::ALL.len(), "two counters share an export name");
        let obs = ObsCore::new(1);
        obs.bump(Stat::TokenPasses);
        obs.add(Stat::PipelineBatchedUpdates, 5);
        assert_eq!(obs.count(Stat::TokenPasses), 1);
        let snap = obs.stats();
        assert_eq!(snap.counters.len(), Stat::ALL.len());
        assert_eq!(snap.get("core/pipeline/batched_updates"), Some(5));
        assert_eq!(snap.get("core/reads/local"), Some(0));
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // Exact range: identity.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_value(v as usize), v);
        }
        // Every power-of-two boundary starts a fresh group, and the
        // representative stays within the bucket's ~6% width.
        for msb in 4..36usize {
            for &v in &[1u64 << msb, (1u64 << msb) + 1, (1u64 << (msb + 1)) - 1] {
                let idx = bucket_index(v);
                let rep = bucket_value(idx);
                let width = 1u64 << (msb - 4);
                assert!(
                    rep.abs_diff(v) <= width,
                    "value {v} bucket {idx} representative {rep} drifted past one bucket width"
                );
            }
        }
        // Adjacent values near a boundary never map to an earlier bucket.
        assert!(bucket_index(16) > bucket_index(15));
        assert!(bucket_index(32) > bucket_index(31));
    }

    #[test]
    fn saturation_at_top_bucket() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 60);
        h.record(1u64 << 36); // first value past the resolved range
        let counts = h.counts();
        assert_eq!(counts.count(), 3);
        // All three land in the top bucket rather than panicking.
        assert_eq!(counts.buckets[BUCKETS - 1], 3);
        // Exact max survives via the atomic max.
        assert_eq!(counts.summary().max, u64::MAX);
        // An interval delta loses the hint and falls back to the top
        // bucket's representative.
        let delta = counts.since(&HistCounts::zero());
        assert_eq!(delta.summary().max, bucket_value(BUCKETS - 1));
    }

    #[test]
    fn percentiles_match_exact_histogram_shape() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        // ~3% relative error bound from SUB_BITS = 4.
        assert!((s.p50 as f64 - 500.0).abs() / 500.0 < 0.05, "p50 {}", s.p50);
        assert!((s.p90 as f64 - 900.0).abs() / 900.0 < 0.05, "p90 {}", s.p90);
        assert!((s.p99 as f64 - 990.0).abs() / 990.0 < 0.05, "p99 {}", s.p99);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9, "mean is exact via the atomic sum");
    }

    #[test]
    fn multithreaded_record_merges_deterministically() {
        // N threads record disjoint slices into their own histograms and
        // all into one shared histogram; the merged per-thread counts
        // must equal the shared histogram's counts exactly.
        let shared = std::sync::Arc::new(AtomicHistogram::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    let own = AtomicHistogram::new();
                    for i in 0..10_000u64 {
                        let v = t * 1_000 + (i * 7919) % 4096;
                        own.record(v);
                        shared.record(v);
                    }
                    own.counts()
                })
            })
            .collect();
        let mut merged = HistCounts::zero();
        for h in handles {
            merged.merge(&h.join().expect("recorder thread"));
        }
        assert_eq!(merged, shared.counts());
        assert_eq!(merged.count(), 40_000);
        assert_eq!(merged.summary(), shared.counts().summary());
    }

    #[test]
    fn zero_samples_count_toward_count_median_and_mean() {
        let h = AtomicHistogram::new();
        for _ in 0..3 {
            h.record(0);
        }
        h.record(10);
        assert_eq!(h.count(), 4);
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.max), (4, 0, 10));
        assert!((s.mean - 2.5).abs() < 1e-9, "mean {}", s.mean);
        // A histogram of zeros alone is not an empty one.
        let zeros = AtomicHistogram::new();
        zeros.record(0);
        let s = zeros.summary();
        assert_eq!((s.count, s.p99, s.max, s.mean), (1, 0, 0, 0.0));
    }

    #[test]
    fn snapshots_mid_storm_agree_with_themselves_and_totals_are_exact() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let done = std::sync::Arc::new(deceit_sim::atomic::PublishedU64::new(0));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let (h, done) = (std::sync::Arc::clone(&h), std::sync::Arc::clone(&done));
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        h.record(if i % 3 == 0 { 0 } else { t * 100 + i % 97 });
                    }
                    done.fetch_add(1);
                })
            })
            .collect();
        // One snapshot holds one count, whatever is recording meanwhile.
        while done.load() < 4 {
            let c = h.counts();
            assert_eq!(c.count(), c.summary().count);
        }
        for w in writers {
            w.join().expect("recorder thread");
        }
        let (mut sum, mut max) = (0u64, 0u64);
        for t in 0..4u64 {
            for i in 0..20_000u64 {
                let v = if i % 3 == 0 { 0 } else { t * 100 + i % 97 };
                sum += v;
                max = max.max(v);
            }
        }
        let s = h.summary();
        assert_eq!((s.count, s.max), (80_000, max));
        assert_eq!(h.counts().sum, sum);
        assert!((s.mean - sum as f64 / 80_000.0).abs() < 1e-9, "mean {}", s.mean);
    }

    #[test]
    fn interval_delta_isolates_new_samples() {
        let h = AtomicHistogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        let before = h.counts();
        for _ in 0..50 {
            h.record(1000);
        }
        let delta = h.counts().since(&before);
        assert_eq!(delta.count(), 50);
        let s = delta.summary();
        assert_eq!(s.count, 50);
        assert!(s.p50 > 900, "delta must only see the new 1000us samples, got {}", s.p50);
    }

    #[test]
    fn flight_recorder_wraps_without_tearing() {
        let fr = FlightRecorder::new(2);
        let s0 = NodeId(0);
        let n = FLIGHT_CAPACITY as u64 + 100;
        for i in 0..n {
            fr.record(
                s0,
                SimTime::from_micros(i),
                ProtocolEvent::MarkedStable { seg: SegmentId(i) },
            );
        }
        assert_eq!(fr.total(s0), n);
        let events = fr.events(s0);
        assert_eq!(events.len(), FLIGHT_CAPACITY, "ring retains exactly its capacity");
        // Oldest-first, contiguous, and ending at the newest event: the
        // wrap overwrote the oldest 100 without tearing any entry.
        for (j, (at, ev)) in events.iter().enumerate() {
            let expect = n - FLIGHT_CAPACITY as u64 + j as u64;
            assert_eq!(at.as_micros(), expect);
            assert_eq!(*ev, ProtocolEvent::MarkedStable { seg: SegmentId(expect) });
        }
        // The other server's ring is untouched.
        assert_eq!(fr.total(NodeId(1)), 0);
        assert!(fr.events(NodeId(1)).is_empty());
    }

    fn stable(seg: u64) -> ProtocolEvent {
        ProtocolEvent::MarkedStable { seg: SegmentId(seg) }
    }

    #[test]
    fn flight_recorder_reads_an_unknown_server_as_empty() {
        let fr = FlightRecorder::new(2);
        fr.record(NodeId(7), SimTime::from_micros(1), stable(1));
        assert_eq!(fr.total(NodeId(7)), 0);
        assert!(fr.events(NodeId(7)).is_empty());
        assert_eq!(fr.mark(), vec![0, 0]);
    }

    #[test]
    fn since_merges_servers_by_protocol_time() {
        let fr = FlightRecorder::new(2);
        fr.record(NodeId(0), SimTime::from_micros(1), stable(0));
        let mark = fr.mark();
        for (server, at, seg) in [(1, 5, 1), (0, 3, 2), (0, 5, 3), (1, 4, 4), (0, 6, 5)] {
            fr.record(NodeId(server), SimTime::from_micros(at), stable(seg));
        }
        let got: Vec<(u64, u32, ProtocolEvent)> = fr
            .since(&mark)
            .expect("nothing overwritten")
            .into_iter()
            .map(|(at, server, ev)| (at.as_micros(), server.0, ev))
            .collect();
        // Time order across servers; the tie at 5us goes to server 0.
        let want = [(3, 0, 2), (4, 1, 4), (5, 0, 3), (5, 1, 1), (6, 0, 5)];
        assert_eq!(got, want.map(|(at, server, seg)| (at, server, stable(seg))));
    }

    #[test]
    fn since_refuses_a_wrapped_ring_until_a_later_mark() {
        let fr = FlightRecorder::new(2);
        let mark = fr.mark();
        for i in 0..=FLIGHT_CAPACITY as u64 {
            fr.record(NodeId(1), SimTime::from_micros(i), stable(i));
        }
        assert_eq!(fr.since(&mark), None, "the first event after the mark was overwritten");
        let later = fr.mark();
        fr.record(NodeId(1), SimTime::from_micros(999), stable(999));
        let got = fr.since(&later).expect("one event after the later mark");
        assert_eq!(got, vec![(SimTime::from_micros(999), NodeId(1), stable(999))]);
        assert_eq!(fr.since(&fr.mark()), Some(vec![]));
    }

    #[test]
    fn flight_recorder_dump_lists_servers() {
        let fr = FlightRecorder::new(2);
        fr.record(
            NodeId(1),
            SimTime::from_micros(42),
            ProtocolEvent::MarkedStable { seg: SegmentId(7) },
        );
        let forwarded =
            ProtocolEvent::UpdateForwarded { seg: SegmentId(7), from: NodeId(1), to: NodeId(0) };
        fr.record(NodeId(1), SimTime::from_micros(43), forwarded);
        let dump = fr.dump();
        assert!(dump.contains("server 0: 0 protocol events"));
        assert!(dump.contains("server 1: 2 protocol events"));
        assert!(dump.contains("MarkedStable"));
        // A forwarded write names the server it entered at.
        let entered = "UpdateForwarded { seg: SegmentId(7), from: NodeId(1), to: NodeId(0) }";
        assert!(dump.contains(entered), "{dump}");
    }
}
