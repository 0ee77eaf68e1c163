//! # runtime
//!
//! The *networked* execution engine: one worker thread per shard
//! cooperatively claiming rounds ([`exec::run_lockstep`]), real
//! concurrent message passing over lock-free per-link rings, one
//! watermark round gate — for both schedulers, over any
//! [`cluster::ShardMetric`].
//!
//! The protocols themselves are not here: each is written once, as the
//! per-shard state machines of `schedulers::node` (`BdsNode`, `FdsNode`),
//! which the simulators step from one loop. This crate is the other
//! transport for the same nodes ([`net`]) — each shard's node runs in
//! its own slot, owns only shard-local state, and exchanges messages
//! through the [`hub::NetHub`] rings. The fault path is shared too:
//! crashes and the per-round PBFT instances with Byzantine vote
//! flipping run in `schedulers::node::shard_round`, and the run is
//! folded by `schedulers::node::RoundFold`. Delivery order is pinned by
//! per-sender sequence numbers, the [`simnet::FaultPlan`]'s drops and
//! duplicates come from per-link streams independent of thread
//! interleaving, and commit events are replayed in the simulator's
//! order, so a networked run produces a `RunReport` **byte-identical**
//! to the simulator's for the same inputs and fault plan.
//! `tests/differential.rs` enforces that equality field by field,
//! including the floating-point latency and queue means.
//!
//! The message plane is lock-free on the per-message path and costs
//! each round in proportion to its traffic: a directed link gets its
//! SPSC [ring] on its first send (sender thread produces, receiver
//! thread consumes, two atomic cursors, an overflow spill so correctness
//! never depends on ring sizing), and rounds are separated by a
//! [watermark gate](sync::RoundGate) rather than a parking barrier.
//! Receivers drain a whole round batched through a [`hub::NetInbox`]:
//! visit only the rings whose senders marked the inbox's activity
//! bitmap, park early arrivals in a ring-of-rounds wheel, sort the due
//! bucket by `(sender, seq)`.
//!
//! The original reproduction hint suggests tokio for this variant; the
//! approved offline dependency set does not include it, so the runtime
//! uses `std::thread::scope` + the lock-free hub instead, which
//! exercises the same code path (concurrent delivery, nondeterministic
//! arrival interleaving within a round, deterministic round gate).
//!
//! Scenario files select this engine with `engine = net` (see
//! [`EngineKind`]); `blockshard run` then routes jobs through
//! [`run_net`] instead of the simulators.
//!
//! `unsafe` is denied crate-wide with one audited exception: the slot
//! array of the SPSC ring in [`ring`], whose ownership protocol is
//! documented there and hammered by `tests/hub_stress.rs` plus the ring
//! property suite.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exec;
pub mod hub;
pub mod net;
pub mod ring;
pub mod sync;

pub use engine::EngineKind;
pub use exec::run_lockstep;
pub use hub::{HubError, NetEnvelope, NetHub, NetInbox, ShardPort};
pub use net::{run_net, run_net_sched, NetOutcome, NetRun, Protocol};
pub use sync::RoundGate;
