//! The threaded message plane: `simnet::Network` semantics for one OS
//! thread per shard, rebuilt lock-free.
//!
//! A [`NetHub`] is the concurrent analogue of the simulator's delay-queue
//! network: a message sent at round `r` over distance `d` is delivered at
//! round `r + max(1, d)`, and each shard's per-round inbox is handed out
//! sorted by `(sender, sender-sequence)` — the exact order the simulator
//! uses (its global sort key is `(to, from, seq)` with per-sender `seq`,
//! and a drain is per-destination already). Because sequence numbers are
//! per sender and fault decisions are per directed link, nothing about
//! delivery depends on how the shard threads interleave; the round gate
//! in the drivers only has to guarantee that round `r - 1`'s sends are
//! enqueued before round `r` is drained.
//!
//! The per-round cost follows the traffic, not the `s²` possible links:
//!
//! * **Links are created on first send.** Building a hub allocates no
//!   ring. The first message a [`ShardPort`] pushes to `to` creates the
//!   `(from, to)` lock-free SPSC [ring]; the port keeps the producer end
//!   and hands the consumer end to `to`'s [`NetInbox`] through a
//!   per-destination hand-off list. A protocol whose transactions touch
//!   `k` of `s` shards uses `O(s·k)` links, and only those exist.
//! * **Producers mark which rings to visit.** The hub keeps one bitmap
//!   of `⌈s/64⌉` words per destination; bit `from` of `to`'s bitmap
//!   means "`from` pushed something `to` has not drained". A drain skips
//!   zero words with one plain load, `swap`s each nonzero word to zero
//!   and drains only the marked rings. Due messages go to the caller,
//!   early arrivals are parked in a ring-of-rounds wheel indexed by
//!   `deliver_at mod wheel size`, and the due bucket is sorted by
//!   `(sender, seq)`.
//!
//! Why a drain never misses a message due at its round:
//!
//! * A send marks with an unconditional `fetch_or(Release)` *after* its
//!   pushes, and the drain clears with `swap(0, Acquire)`. Both are
//!   read-modify-writes, so they sit in one modification order on the
//!   word: either the swap reads the bit — and then sees the push — or
//!   the mark lands after the swap and stays set for the next drain. A
//!   "load, skip if already set" shortcut would break this: the sender
//!   could read the old bit while the consumer clears it and drains
//!   before the push is visible, stranding the message.
//! * Every round `r - 1` mark precedes its sender's `Release` watermark
//!   store in the round gate, which the drainer of round `r` `Acquire`s.
//!   So the plain load that skips a word cannot read a value older than
//!   those marks.
//! * A new link's consumer end enters the hand-off list before the first
//!   mark for it, so an inbox that finds a marked sender with no ring
//!   finds the ring in the list.
//!
//! No mutex is on the per-message path; the only locks are the rings'
//! spill queues (touched when a ring overflows, never required for
//! correctness) and the hand-off lists (once per link).
//!
//! Counter accounting is sender-local for the same reason: each port
//! tallies sends / sizes / drops / duplicates in plain integers and
//! flushes them into the hub's shared atomics on drop (or an explicit
//! [`ShardPort::flush`]), so the hot path performs no shared
//! read-modify-write beyond the mark. Hub-level counts are therefore
//! complete once the shard threads have finished — exactly when the
//! drivers read them.

use crate::ring::{self, RingConsumer, RingProducer};
use cluster::ShardMetric;
use parking_lot::Mutex;
use sharding_core::ShardId;
use simnet::faults::{FaultDecision, FaultPlan, LinkBank};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A delivered message: sender plus the sender-local sequence number used
/// as the deterministic tie-break.
#[derive(Debug)]
pub struct NetEnvelope<P> {
    /// Sending shard.
    pub from: ShardId,
    /// Sender-local sequence number.
    pub seq: u64,
    /// Protocol payload.
    pub payload: P,
}

/// What travels through a link ring: the envelope plus its delivery
/// round, which the inbox consumes when bucketing into the wheel.
struct Queued<P> {
    deliver_at: u64,
    env: NetEnvelope<P>,
}

/// Why a [`NetHub`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubError {
    /// The metric declares zero shards — there is no one to deliver to,
    /// and every later index computation would be out of bounds.
    NoShards,
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::NoShards => write!(f, "cannot build a message hub over zero shards"),
        }
    }
}

impl std::error::Error for HubError {}

/// One endpoint's ends of its existing links, looked up by peer: an
/// `s`-entry index into a dense vector holding only the links in use.
struct Links<E> {
    /// `index[peer]` is the position of `peer`'s end in `ends`, or
    /// `u32::MAX` while the link does not exist.
    index: Vec<u32>,
    ends: Vec<E>,
}

impl<E> Links<E> {
    fn new(shards: usize) -> Self {
        Links {
            index: vec![u32::MAX; shards],
            ends: Vec::new(),
        }
    }

    fn get(&mut self, peer: ShardId) -> Option<&mut E> {
        // A missing link's `u32::MAX` is out of range of `ends`.
        self.ends.get_mut(self.index[peer.index()] as usize)
    }

    fn insert(&mut self, peer: ShardId, end: E) {
        debug_assert_eq!(self.index[peer.index()], u32::MAX, "link exists");
        self.index[peer.index()] = self.ends.len() as u32;
        self.ends.push(end);
    }
}

/// A link's sender and the consumer end its inbox has yet to adopt.
type NewLink<P> = (ShardId, RingConsumer<Queued<P>>);

/// The shared delivery plane. One instance per run, referenced by every
/// shard thread; see the module docs for the link and bitmap protocol.
pub struct NetHub<P> {
    /// Distance matrix snapshot (row-major).
    dist: Vec<u64>,
    shards: usize,
    sizer: fn(&P) -> usize,
    /// Wheel size for the inboxes: smallest power of two that covers the
    /// live delivery window `[round, round + max_delay]`.
    wheel_len: u64,
    /// Slot count of every link ring, fixed at build time.
    capacity: usize,
    /// Bitmap words per destination: `⌈s/64⌉`.
    words: usize,
    /// `words` words per destination, row `to`: bit `from` is set by
    /// `from`'s port after a push and cleared by `to`'s inbox before it
    /// drains that ring.
    marks: Vec<AtomicU64>,
    /// Per destination: consumer ends of links created since its inbox
    /// last looked.
    new_links: Vec<Mutex<Vec<NewLink<P>>>>,
    /// Whether each shard's port / inbox was taken: each exists exactly
    /// once (the SPSC contract, enforced at runtime).
    ports_taken: Vec<AtomicBool>,
    inboxes_taken: Vec<AtomicBool>,
    sent: AtomicU64,
    max_message_bytes: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    spilled: AtomicU64,
}

/// Default per-link ring capacity: a wider system spreads each round's
/// traffic over more links, so each link gets fewer slots. Overflow is
/// handled by the spill path, so this is purely a throughput knob.
fn default_capacity(shards: usize) -> usize {
    (2048 / shards.max(1)).clamp(4, 128)
}

impl<P> NetHub<P> {
    /// Builds the hub over `metric` with a payload sizer (the same
    /// estimator the simulator uses, so `max_message_bytes` agrees) and
    /// the default per-link ring capacity.
    pub fn new(metric: &dyn ShardMetric, sizer: fn(&P) -> usize) -> Result<Self, HubError> {
        Self::with_capacity(metric, sizer, default_capacity(metric.shards()))
    }

    /// Like [`NetHub::new`] with an explicit per-link ring capacity
    /// (rounded up to a power of two, minimum 1). Tiny capacities force
    /// the spill path and are exercised by the stress tests; correctness
    /// is capacity-independent.
    pub fn with_capacity(
        metric: &dyn ShardMetric,
        sizer: fn(&P) -> usize,
        capacity: usize,
    ) -> Result<Self, HubError> {
        let s = metric.shards();
        if s == 0 {
            return Err(HubError::NoShards);
        }
        let mut dist = vec![0u64; s * s];
        for a in 0..s {
            for b in 0..s {
                dist[a * s + b] = metric.distance(ShardId(a as u32), ShardId(b as u32));
            }
        }
        let max_delay = dist.iter().copied().max().unwrap_or(1).max(1);
        // While a consumer drains round R, the gate bounds every producer
        // to rounds <= R, so live deliver_at values span [R, R + max_delay]
        // — max_delay + 1 distinct slots. One extra slot of slack keeps
        // the wheel collision-free even at the window edge.
        let wheel_len = (max_delay + 2).next_power_of_two();
        let words = s.div_ceil(64);
        let flags = || (0..s).map(|_| AtomicBool::new(false)).collect();
        Ok(NetHub {
            dist,
            shards: s,
            sizer,
            wheel_len,
            capacity,
            words,
            marks: (0..s * words).map(|_| AtomicU64::new(0)).collect(),
            new_links: (0..s).map(|_| Mutex::new(Vec::new())).collect(),
            ports_taken: flags(),
            inboxes_taken: flags(),
            sent: AtomicU64::new(0),
            max_message_bytes: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
        })
    }

    /// Number of shards the hub connects.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Distance (in rounds) between two shards.
    #[inline]
    pub fn distance(&self, a: ShardId, b: ShardId) -> u64 {
        self.dist[a.index() * self.shards + b.index()]
    }

    /// Total protocol sends attempted (dropped messages included,
    /// fault-plane duplicates excluded — matching the simulator's
    /// `sent_count`, which counts the scheduler's `send` calls).
    ///
    /// Ports tally locally and flush on drop, so hub counts are complete
    /// once the sending threads have finished (or called
    /// [`ShardPort::flush`]).
    pub fn sent_count(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Largest single payload observed.
    pub fn max_message_bytes(&self) -> u64 {
        self.max_message_bytes.load(Ordering::Relaxed)
    }

    /// Messages dropped by the fault plane.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Messages duplicated by the fault plane.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Messages that overflowed a link ring into its spill queue —
    /// a sizing diagnostic, not a correctness signal.
    pub fn spilled_count(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }

    /// `to`'s activity bitmap.
    fn marks_of(&self, to: ShardId) -> &[AtomicU64] {
        &self.marks[to.index() * self.words..][..self.words]
    }
}

/// Claims `shard`'s one-time endpoint in `taken`.
fn take_once(taken: &[AtomicBool], shard: ShardId, what: &str) {
    assert!(
        !taken[shard.index()].swap(true, Ordering::Relaxed),
        "{what}::new called twice for one shard"
    );
}

/// One shard thread's sending endpoint: the producer side of its
/// outgoing rings, its sequence counter, its fault streams, and its
/// local tallies.
pub struct ShardPort<'h, P> {
    hub: &'h NetHub<P>,
    from: ShardId,
    seq: u64,
    /// Producer ends of the links this port has sent on, by destination.
    rings: Links<RingProducer<Queued<P>>>,
    /// This port's row of the hub's distance matrix.
    dist: &'h [u64],
    faults: LinkBank,
    sent: u64,
    max_message_bytes: u64,
    dropped: u64,
    duplicated: u64,
    /// Spilled pushes already flushed into the hub (flush is idempotent;
    /// drop flushes again).
    spilled_reported: u64,
}

impl<'h, P> ShardPort<'h, P> {
    /// Takes the sender endpoint of shard `from`. An inert plan disables
    /// the fault path entirely.
    ///
    /// # Panics
    ///
    /// If the port for `from` was already taken — each shard's producer
    /// endpoints exist exactly once (the SPSC soundness contract).
    pub fn new(hub: &'h NetHub<P>, from: ShardId, plan: &FaultPlan) -> Self {
        take_once(&hub.ports_taken, from, "ShardPort");
        let s = hub.shards;
        ShardPort {
            faults: LinkBank::new(plan, from, s),
            dist: &hub.dist[from.index() * s..][..s],
            rings: Links::new(s),
            hub,
            from,
            seq: 0,
            sent: 0,
            max_message_bytes: 0,
            dropped: 0,
            duplicated: 0,
            spilled_reported: 0,
        }
    }

    /// Adds this port's local tallies into the hub's shared counters and
    /// zeroes them. Called automatically on drop; safe to call any
    /// number of times.
    pub fn flush(&mut self) {
        let hub = self.hub;
        hub.sent.fetch_add(self.sent, Ordering::Relaxed);
        hub.max_message_bytes
            .fetch_max(self.max_message_bytes, Ordering::Relaxed);
        hub.dropped.fetch_add(self.dropped, Ordering::Relaxed);
        hub.duplicated.fetch_add(self.duplicated, Ordering::Relaxed);
        let spilled: u64 = self.rings.ends.iter().map(RingProducer::spilled).sum();
        hub.spilled
            .fetch_add(spilled - self.spilled_reported, Ordering::Relaxed);
        self.spilled_reported = spilled;
        self.sent = 0;
        self.max_message_bytes = 0;
        self.dropped = 0;
        self.duplicated = 0;
    }
}

impl<'h, P: Clone> ShardPort<'h, P> {
    /// Rounds until a message sent now reaches `to`: `max(1, d(from, to))`.
    pub fn delay(&self, to: ShardId) -> u64 {
        self.dist[to.index()].max(1)
    }

    /// Sends `payload` to `to` at round `now`, honoring metric delay and
    /// the link's fault stream. Sequence-number consumption matches
    /// `simnet::Network`: a dropped message still consumes one sequence
    /// number, a duplicated one consumes two.
    pub fn send(&mut self, to: ShardId, now: u64, payload: P) {
        let hub = self.hub;
        let bytes = (hub.sizer)(&payload) as u64;
        self.sent += 1;
        self.max_message_bytes = self.max_message_bytes.max(bytes);
        let decision = self.faults.decide(to);
        if decision == FaultDecision::Drop {
            self.seq += 1;
            self.dropped += 1;
            return;
        }
        let deliver_at = now + self.delay(to);
        if self.rings.get(to).is_none() {
            let (producer, consumer) = ring::spsc(hub.capacity);
            // Hand the consumer end over before the mark below can send
            // the inbox looking for it.
            hub.new_links[to.index()].lock().push((self.from, consumer));
            self.rings.insert(to, producer);
        }
        let ring = self.rings.get(to).expect("link exists");
        if decision == FaultDecision::Duplicate {
            self.duplicated += 1;
            // Clone only the extra fault-plane duplicate; the common
            // single-copy payload is moved.
            ring.push(Queued {
                deliver_at,
                env: NetEnvelope {
                    from: self.from,
                    seq: self.seq,
                    payload: payload.clone(),
                },
            });
            self.seq += 1;
        }
        ring.push(Queued {
            deliver_at,
            env: NetEnvelope {
                from: self.from,
                seq: self.seq,
                payload,
            },
        });
        self.seq += 1;
        // Unconditional read-modify-write after the pushes; see the
        // module docs for why skipping an already-set bit is unsound.
        let from = self.from.index();
        hub.marks_of(to)[from / 64].fetch_or(1 << (from % 64), Ordering::Release);
    }
}

impl<P> Drop for ShardPort<'_, P> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One shard thread's receiving endpoint: the consumer side of its
/// incoming rings plus the ring-of-rounds wheel that parks early
/// arrivals until their delivery round.
pub struct NetInbox<'h, P> {
    hub: &'h NetHub<P>,
    to: ShardId,
    /// Consumer ends of the links adopted so far, by sender.
    rings: Links<RingConsumer<Queued<P>>>,
    /// `wheel[deliver_at & mask]` holds envelopes due at `deliver_at`,
    /// valid because the gate keeps the live window narrower than the
    /// wheel (see `NetHub::with_capacity`).
    wheel: Vec<Vec<NetEnvelope<P>>>,
    mask: u64,
    /// Arrivals beyond the wheel window — only reachable when drains are
    /// *not* round-lockstep (tests that send many rounds ahead before
    /// draining); keeps correctness independent of wheel sizing.
    overflow: BTreeMap<u64, Vec<NetEnvelope<P>>>,
    ring_visits: u64,
}

impl<'h, P> NetInbox<'h, P> {
    /// Takes the receiver endpoint of shard `to`. The inbox borrows the
    /// hub: it reads `to`'s activity bitmap and adopts new links from
    /// the hub's hand-off list.
    ///
    /// # Panics
    ///
    /// If the inbox for `to` was already taken — each shard's consumer
    /// endpoints exist exactly once (the SPSC soundness contract).
    pub fn new(hub: &'h NetHub<P>, to: ShardId) -> Self {
        take_once(&hub.inboxes_taken, to, "NetInbox");
        NetInbox {
            hub,
            to,
            rings: Links::new(hub.shards),
            wheel: (0..hub.wheel_len).map(|_| Vec::new()).collect(),
            mask: hub.wheel_len - 1,
            overflow: BTreeMap::new(),
            ring_visits: 0,
        }
    }

    /// The shard this inbox belongs to.
    pub fn shard(&self) -> ShardId {
        self.to
    }

    /// Rings drained so far: one per marked sender per drain. It never
    /// exceeds the pushes this inbox was sent, and an idle inbox visits
    /// none. With senders running concurrently, whether two pushes share
    /// one visit depends on when their marks land, so only single-thread
    /// drives give an exact count.
    pub fn ring_visits(&self) -> u64 {
        self.ring_visits
    }

    /// Collects into `out` (cleared first) every message due for `round`,
    /// sorted by `(sender, sender-sequence)`.
    ///
    /// One pass pops everything currently published on the rings whose
    /// senders are marked: messages due now go straight to `out`,
    /// earlier-than-needed arrivals are parked in the wheel (or the
    /// overflow map beyond the wheel window) for a later drain. For the
    /// hand-out to be complete the caller must ensure all sends of rounds
    /// `< round` happened before this call — the drivers' round gate
    /// provides exactly that.
    pub fn drain_into(&mut self, round: u64, out: &mut Vec<NetEnvelope<P>>) {
        out.clear();
        let hub = self.hub;
        let mask = self.mask;
        for (w, word) in hub.marks_of(self.to).iter().enumerate() {
            // A plain load suffices to skip: the gate orders every mark
            // this drain must see before it (see the module docs).
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::Acquire);
            while bits != 0 {
                let from = ShardId((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                if self.rings.get(from).is_none() {
                    // The sender handed the consumer end over before
                    // marking; adopt every link waiting for this inbox.
                    for (sender, consumer) in hub.new_links[self.to.index()].lock().drain(..) {
                        self.rings.insert(sender, consumer);
                    }
                }
                let ring = self.rings.get(from).expect("marked link was handed over");
                self.ring_visits += 1;
                ring.drain_with(|q: Queued<P>| {
                    debug_assert!(q.deliver_at >= round, "missed a delivery round");
                    if q.deliver_at == round {
                        out.push(q.env);
                    } else if q.deliver_at - round <= mask {
                        self.wheel[(q.deliver_at & mask) as usize].push(q.env);
                    } else {
                        self.overflow.entry(q.deliver_at).or_default().push(q.env);
                    }
                });
            }
        }
        let bucket = &mut self.wheel[(round & mask) as usize];
        out.append(bucket);
        if !self.overflow.is_empty() {
            if let Some(late) = self.overflow.remove(&round) {
                out.extend(late);
            }
        }
        out.sort_unstable_by_key(|e| (e.from, e.seq));
    }

    /// Convenience wrapper over [`NetInbox::drain_into`] returning a
    /// fresh vector (tests; the drivers reuse a buffer).
    pub fn drain(&mut self, round: u64) -> Vec<NetEnvelope<P>> {
        let mut out = Vec::new();
        self.drain_into(round, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{LineMetric, UniformMetric};

    fn sizer(_: &u32) -> usize {
        4
    }

    #[test]
    fn delivers_with_metric_delay_in_sender_order() {
        let m = LineMetric::new(4);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let inert = FaultPlan::default();
        let mut inbox = NetInbox::new(&hub, ShardId(3));
        let mut p0 = ShardPort::new(&hub, ShardId(0), &inert);
        let mut p1 = ShardPort::new(&hub, ShardId(1), &inert);
        p1.send(ShardId(3), 0, 30); // distance 2 → round 2
        p0.send(ShardId(3), 0, 10); // distance 3 → round 3
        p0.send(ShardId(3), 1, 11); // distance 3 → round 4
        p1.send(ShardId(3), 1, 31); // distance 2 → round 3
        assert!(inbox.drain(1).is_empty());
        assert_eq!(
            inbox.drain(2).iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![30]
        );
        // Round 3: shard 0's first message sorts before shard 1's second.
        let due = inbox.drain(3);
        let key: Vec<(u32, u64, u32)> = due
            .iter()
            .map(|e| (e.from.raw(), e.seq, e.payload))
            .collect();
        assert_eq!(key, vec![(0, 0, 10), (1, 1, 31)]);
        assert_eq!(inbox.drain(4).len(), 1);
        drop(p0);
        drop(p1);
        assert_eq!(hub.sent_count(), 4);
        assert_eq!(hub.max_message_bytes(), 4);
    }

    #[test]
    fn self_send_takes_one_round() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(1), &FaultPlan::default());
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        p.send(ShardId(1), 5, 9);
        assert_eq!(inbox.drain(6).len(), 1);
    }

    #[test]
    fn zero_shard_metric_is_a_typed_error() {
        // The standard metrics refuse to build empty, so model the
        // degenerate shape directly — exactly what a buggy custom
        // ShardMetric impl could hand us.
        struct Empty;
        impl cluster::ShardMetric for Empty {
            fn shards(&self) -> usize {
                0
            }
            fn distance(&self, _: ShardId, _: ShardId) -> u64 {
                0
            }
        }
        let err = match NetHub::<u32>::new(&Empty, sizer) {
            Ok(_) => panic!("zero-shard hub must not build"),
            Err(e) => e,
        };
        assert_eq!(err, HubError::NoShards);
        assert!(err.to_string().contains("zero shards"));
    }

    #[test]
    #[should_panic(expected = "ShardPort::new called twice")]
    fn second_port_for_one_shard_panics() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let inert = FaultPlan::default();
        let _first = ShardPort::new(&hub, ShardId(0), &inert);
        let _second = ShardPort::new(&hub, ShardId(0), &inert);
    }

    #[test]
    #[should_panic(expected = "NetInbox::new called twice")]
    fn second_inbox_for_one_shard_panics() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let _first = NetInbox::new(&hub, ShardId(1));
        let _second = NetInbox::new(&hub, ShardId(1));
    }

    #[test]
    fn idle_inbox_visits_no_ring() {
        let m = UniformMetric::new(8);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        let mut busy = NetInbox::new(&hub, ShardId(1));
        let mut idle = NetInbox::new(&hub, ShardId(2));
        // Traffic elsewhere in the hub must not cost the idle inbox.
        p.send(ShardId(1), 0, 1);
        for round in 0..100 {
            assert!(idle.drain(round).is_empty());
        }
        assert_eq!(idle.ring_visits(), 0);
        assert_eq!(busy.drain(1).len(), 1);
        assert_eq!(busy.ring_visits(), 1);
    }

    #[test]
    fn wide_fresh_hub_builds_no_ring() {
        // Ring-per-link up front would be about a million rings here.
        let m = UniformMetric::new(1024);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        for to in 0..1024 {
            let mut inbox = NetInbox::new(&hub, ShardId(to));
            assert!(inbox.drain(0).is_empty());
            assert_eq!(inbox.ring_visits(), 0, "inbox {to}");
        }
    }

    #[test]
    fn k_senders_cost_at_most_k_visits_per_drain() {
        // Senders straddle the bitmap's word edges of a 130-shard hub.
        let m = UniformMetric::new(130);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let inert = FaultPlan::default();
        let senders = [0u32, 1, 63, 64, 65, 127, 128, 129];
        let k = senders.len() as u64;
        let mut ports: Vec<ShardPort<u32>> = senders
            .iter()
            .map(|&f| ShardPort::new(&hub, ShardId(f), &inert))
            .collect();
        let mut inbox = NetInbox::new(&hub, ShardId(64));
        for round in 0..20u64 {
            for (i, port) in ports.iter_mut().enumerate() {
                // Three messages per sender per round, on one link each.
                for n in 0..3 {
                    port.send(ShardId(64), round, (i * 3 + n) as u32);
                }
            }
            let before = inbox.ring_visits();
            let due = inbox.drain(round);
            assert!(inbox.ring_visits() - before <= k, "round {round}");
            if round > 0 {
                assert_eq!(due.len() as u64, 3 * k, "round {round}");
                let froms: Vec<u32> = due.iter().step_by(3).map(|e| e.from.raw()).collect();
                assert_eq!(froms, senders, "sorted by sender across words");
            }
        }
    }

    #[test]
    fn flush_is_idempotent_with_drop() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        p.send(ShardId(1), 0, 7);
        p.flush();
        assert_eq!(hub.sent_count(), 1);
        drop(p); // must not double-count the flushed tallies
        assert_eq!(hub.sent_count(), 1);
        assert_eq!(hub.max_message_bytes(), 4);
    }

    #[test]
    fn tiny_rings_spill_without_losing_messages() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::with_capacity(&m, sizer, 1).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        for i in 0..50 {
            p.send(ShardId(1), 0, i);
        }
        let due = inbox.drain(1);
        assert_eq!(due.len(), 50);
        // Sorted by seq regardless of which lane carried each message.
        let seqs: Vec<u64> = due.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
        drop(p);
        assert_eq!(hub.spilled_count(), 49, "capacity-1 ring spills the rest");
    }

    #[test]
    fn fault_streams_match_simnet_network() {
        // The same plan applied to the same per-link traffic must drop
        // and duplicate the same message indices as simnet::Network —
        // both sides consume one draw per message from the same stream.
        let plan = FaultPlan {
            drop_prob: 0.25,
            dup_prob: 0.25,
            ..FaultPlan::default()
        };
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut port = ShardPort::new(&hub, ShardId(0), &plan);
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        let mut net: simnet::Network<u32> = simnet::Network::new(&m);
        net.set_faults(plan);
        for i in 0..100 {
            port.send(ShardId(1), i, i as u32);
            net.send(ShardId(0), ShardId(1), sharding_core::Round(i), i as u32);
        }
        // Sends ran 100 rounds ahead of the first drain, so most
        // arrivals overflow the inbox wheel — the non-lockstep path.
        let hub_seen: Vec<u32> = (1..=101)
            .flat_map(|r| inbox.drain(r))
            .map(|e| e.payload)
            .collect();
        let net_seen: Vec<u32> = (1..=101)
            .flat_map(|r| net.deliver_due(sharding_core::Round(r)))
            .map(|e| e.payload)
            .collect();
        assert_eq!(hub_seen, net_seen);
        drop(port);
        assert_eq!(hub.dropped_count(), net.dropped_count());
        assert_eq!(hub.duplicated_count(), net.duplicated_count());
        assert!(hub.dropped_count() > 0 && hub.duplicated_count() > 0);
    }
}
