//! The simulated network: reachability, crash state, and accounting.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use deceit_sim::{leaf, SimDuration, SimRng};

use crate::latency::LatencyModel;
use crate::node::NodeId;
use crate::topology::Partition;

/// Outcome of attempting to send one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives after the given one-way latency.
    Delivered(SimDuration),
    /// Sender and receiver cannot currently communicate (crash or
    /// partition). Per §2.3 failure detection is the job of the layer above
    /// (ISIS), which observes this as a missing reply.
    Unreachable,
}

impl Delivery {
    /// The latency if delivered.
    pub fn latency(self) -> Option<SimDuration> {
        match self {
            Delivery::Delivered(d) => Some(d),
            Delivery::Unreachable => None,
        }
    }

    /// Whether the message arrived.
    pub fn is_delivered(self) -> bool {
        matches!(self, Delivery::Delivered(_))
    }
}

/// Aggregate traffic accounting for one run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Messages successfully delivered.
    pub messages: u64,
    /// Payload bytes successfully delivered.
    pub bytes: u64,
    /// Send attempts that found the peer unreachable.
    pub unreachable: u64,
    /// Messages that required a (modeled) retransmission.
    pub retransmits: u64,
    by_tag: BTreeMap<&'static str, u64>,
}

impl NetStats {
    /// Delivered-message count for one protocol tag.
    pub fn tag_count(&self, tag: &str) -> u64 {
        self.by_tag.get(tag).copied().unwrap_or(0)
    }

    /// All tags seen, with counts, in sorted order.
    pub fn tags(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_tag.iter().map(|(t, c)| (*t, *c))
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = NetStats::default();
    }
}

/// The simulated network connecting all machines of one deployment.
///
/// Within a cell messages use the LAN latency model; between cells (§2.2)
/// they use the WAN model. Message loss is modeled as a retransmission
/// delay rather than actual loss, because all inter-server traffic flows
/// through ISIS, which provides reliable delivery (§2.4) — a lost packet
/// surfaces as added latency, not a lost message. Long-term loss is modeled
/// explicitly with [`Partition`]s.
#[derive(Debug)]
pub struct Network {
    lan: LatencyModel,
    wan: LatencyModel,
    cells: BTreeMap<NodeId, u32>,
    partition: Partition,
    crashed: BTreeSet<NodeId>,
    /// Probability that a message needs one retransmission round.
    pub loss_prob: f64,
    /// Extra delay charged per retransmission.
    pub retransmit_delay: SimDuration,
    /// Latency sampling and accounting, internally locked so that
    /// [`Network::send`] works through `&self`: concurrent protocol
    /// executions (the sharded mutation path) send without exclusive
    /// network access. Topology (crashes, partitions, cells) stays plain
    /// because failure injection only ever runs under the host's
    /// exclusive lock.
    hot: std::sync::Mutex<NetHot>,
}

#[derive(Debug)]
struct NetHot {
    rng: SimRng,
    stats: NetStats,
}

impl Network {
    /// Creates a fully connected network with the given intra-cell latency
    /// model and RNG seed. All nodes start in cell 0 and alive.
    pub fn new(lan: LatencyModel, seed: u64) -> Self {
        Network {
            lan,
            wan: LatencyModel::wan(),
            cells: BTreeMap::new(),
            partition: Partition::connected(),
            crashed: BTreeSet::new(),
            loss_prob: 0.0,
            retransmit_delay: SimDuration::from_millis(20),
            hot: std::sync::Mutex::new(NetHot {
                rng: SimRng::new(seed ^ 0x6e65_745f_7367),
                stats: NetStats::default(),
            }),
        }
    }

    /// A network with deterministic fixed latency; convenient in tests.
    pub fn fixed(latency: SimDuration, seed: u64) -> Self {
        Network::new(LatencyModel::Fixed(latency), seed)
    }

    /// Assigns `node` to an administrative cell (default cell is 0).
    pub fn set_cell(&mut self, node: NodeId, cell: u32) {
        self.cells.insert(node, cell);
    }

    /// The cell a node belongs to.
    pub fn cell_of(&self, node: NodeId) -> u32 {
        self.cells.get(&node).copied().unwrap_or(0)
    }

    /// Marks a machine as crashed; it can neither send nor receive.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Brings a crashed machine back.
    pub fn recover(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }

    /// Whether the machine is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        !self.crashed.contains(&node)
    }

    /// Imposes a partition.
    pub fn split(&mut self, groups: &[&[NodeId]]) {
        self.partition = Partition::split(groups);
    }

    /// Heals any partition.
    pub fn heal(&mut self) {
        self.partition.heal();
    }

    /// Read access to the current partition state.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Whether `a` and `b` can currently communicate (both up, same side of
    /// any partition). Reads only; does not touch accounting.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.is_up(a) && self.is_up(b) && self.partition.can_reach(a, b)
    }

    /// Attempts to deliver one tagged message of `bytes` payload.
    ///
    /// On success the returned latency includes any modeled retransmission
    /// delay and, for inter-cell traffic, WAN costs.
    pub fn send(&self, from: NodeId, to: NodeId, bytes: usize, tag: &'static str) -> Delivery {
        let mut hot = leaf::lock(&self.hot);
        let sent = self.deliver(&mut hot, from, to, bytes);
        if sent.is_delivered() {
            *hot.stats.by_tag.entry(tag).or_insert(0) += 1;
        }
        sent
    }

    /// One request/reply exchange: a message of `bytes` from `from` to
    /// `to` and, if it arrives, one of `reply_bytes` back — exactly two
    /// [`Network::send`]s (same accounting, same latency draws in the
    /// same order) under one acquisition of the accounting lock. Returns
    /// the round-trip latency.
    pub fn exchange(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        reply_bytes: usize,
        tag: &'static str,
    ) -> Delivery {
        let mut hot = leaf::lock(&self.hot);
        let Delivery::Delivered(out) = self.deliver(&mut hot, from, to, bytes) else {
            return Delivery::Unreachable;
        };
        let back = self.deliver(&mut hot, to, from, reply_bytes);
        *hot.stats.by_tag.entry(tag).or_insert(0) += 1 + u64::from(back.is_delivered());
        match back {
            Delivery::Delivered(back) => Delivery::Delivered(out + back),
            Delivery::Unreachable => Delivery::Unreachable,
        }
    }

    /// One message's latency draw and accounting, all but its tag count.
    fn deliver(&self, hot: &mut NetHot, from: NodeId, to: NodeId, bytes: usize) -> Delivery {
        if !self.reachable(from, to) {
            hot.stats.unreachable += 1;
            return Delivery::Unreachable;
        }
        let model = if self.cell_of(from) == self.cell_of(to) { &self.lan } else { &self.wan };
        let mut latency = if from == to {
            // Loopback: local procedure call, effectively free.
            SimDuration::from_micros(10)
        } else {
            model.sample(&mut hot.rng, bytes)
        };
        if self.loss_prob > 0.0 && from != to && hot.rng.chance(self.loss_prob) {
            latency += self.retransmit_delay;
            hot.stats.retransmits += 1;
        }
        hot.stats.messages += 1;
        hot.stats.bytes += bytes as u64;
        Delivery::Delivered(latency)
    }

    /// Traffic accounting so far (a point-in-time copy).
    pub fn stats(&self) -> NetStats {
        leaf::lock(&self.hot).stats.clone()
    }

    /// Resets the accounting (between experiment phases).
    pub fn reset_stats(&mut self) {
        leaf::lock(&self.hot).stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    fn net() -> Network {
        Network::fixed(SimDuration::from_micros(1_000), 42)
    }

    #[test]
    fn delivers_with_fixed_latency() {
        let net = net();
        match net.send(n(0), n(1), 128, "test") {
            Delivery::Delivered(d) => assert_eq!(d, SimDuration::from_micros(1_000)),
            Delivery::Unreachable => panic!("should deliver"),
        }
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().bytes, 128);
        assert_eq!(net.stats().tag_count("test"), 1);
        assert_eq!(net.stats().tag_count("other"), 0);
    }

    #[test]
    fn exchange_is_two_sends_under_one_lock() {
        let lan = LatencyModel::lan();
        let (a, b) = (Network::new(lan.clone(), 9), Network::new(lan, 9));
        for bytes in [0, 512, 70_000] {
            let out = a.send(n(0), n(1), bytes, "t").latency().unwrap();
            let back = a.send(n(1), n(0), 16, "t").latency().unwrap();
            assert_eq!(b.exchange(n(0), n(1), bytes, 16, "t"), Delivery::Delivered(out + back));
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.messages, sa.bytes, sa.tag_count("t")), (6, 70_560, 6));
        assert_eq!((sb.messages, sb.bytes, sb.tag_count("t")), (6, 70_560, 6));

        let mut c = net();
        c.crash(n(1));
        assert_eq!(c.exchange(n(0), n(1), 1, 1, "t"), Delivery::Unreachable);
        assert_eq!((c.stats().unreachable, c.stats().tag_count("t")), (1, 0));
    }

    #[test]
    fn crash_blocks_both_directions() {
        let mut net = net();
        net.crash(n(1));
        assert!(!net.is_up(n(1)));
        assert_eq!(net.send(n(0), n(1), 1, "t"), Delivery::Unreachable);
        assert_eq!(net.send(n(1), n(0), 1, "t"), Delivery::Unreachable);
        assert_eq!(net.stats().unreachable, 2);
        net.recover(n(1));
        assert!(net.send(n(0), n(1), 1, "t").is_delivered());
    }

    #[test]
    fn partition_blocks_cross_traffic_until_heal() {
        let mut net = net();
        net.split(&[&[n(0), n(1)], &[n(2)]]);
        assert!(net.send(n(0), n(1), 1, "t").is_delivered());
        assert_eq!(net.send(n(0), n(2), 1, "t"), Delivery::Unreachable);
        net.heal();
        assert!(net.send(n(0), n(2), 1, "t").is_delivered());
    }

    #[test]
    fn loopback_is_cheap() {
        let net = net();
        let d = net.send(n(3), n(3), 1 << 20, "t").latency().unwrap();
        assert!(d < SimDuration::from_micros(100));
    }

    #[test]
    fn inter_cell_uses_wan() {
        let mut net = net();
        net.set_cell(n(0), 0);
        net.set_cell(n(1), 1);
        let d = net.send(n(0), n(1), 64, "t").latency().unwrap();
        assert!(d >= SimDuration::from_millis(30), "wan latency {d}");
        let d2 = net.send(n(0), n(2), 64, "t").latency().unwrap();
        assert_eq!(d2, SimDuration::from_micros(1_000), "intra-cell stays lan");
    }

    #[test]
    fn loss_adds_retransmit_delay() {
        let mut net = net();
        net.loss_prob = 1.0;
        let d = net.send(n(0), n(1), 1, "t").latency().unwrap();
        assert_eq!(d, SimDuration::from_micros(1_000) + SimDuration::from_millis(20));
        assert_eq!(net.stats().retransmits, 1);
    }

    #[test]
    fn stats_reset() {
        let mut net = net();
        let _ = net.send(n(0), n(1), 10, "t");
        net.reset_stats();
        assert_eq!(net.stats().messages, 0);
        assert_eq!(net.stats().tag_count("t"), 0);
    }

    #[test]
    fn reachability_is_symmetric() {
        let mut net = net();
        net.split(&[&[n(0)], &[n(1)]]);
        assert_eq!(net.reachable(n(0), n(1)), net.reachable(n(1), n(0)));
    }
}
