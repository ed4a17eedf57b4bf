//! The simulation kernel.
//!
//! [`World`] owns the clock, the nodes, and the network, and advances them
//! deterministically: same seed and same setup ⇒ same event order, same
//! metrics, same trace.
//!
//! # Sharded runtime
//!
//! Nodes are partitioned round-robin across `WorldConfig::shards` shards
//! (node `n` lives on shard `n % N`). Each shard owns its nodes' slots, an
//! event queue, a clock cursor, and its own metrics/trace buffers, so a
//! multi-shard run can process shards on worker threads. Determinism across
//! shard counts comes from two rules:
//!
//! 1. Every event carries the key `(virtual_time, origin, seq)`, where
//!    `origin` is the id of the *node* whose callback created the event (the
//!    driver uses a reserved origin) and `seq` is a per-origin counter. The
//!    key depends only on the event's cause, never on the shard layout, so
//!    the induced total order is identical at any shard count.
//! 2. Randomness is drawn from per-node streams derived from `(seed, node)`
//!    only; message latency is drawn from the *sender's* stream.
//!
//! Every run goes through one dispatch loop of conservative time windows:
//! with lookahead `L =` [`crate::LatencyModel::min_latency`], every
//! cross-shard message created at time `t` is due no earlier than `t + L`,
//! so all shards can process the window `[m, m + L)` (where `m` is the
//! global minimum pending time, see [`window_end`]) in parallel without
//! ever receiving an event "in the past". Cross-shard events travel through
//! per-shard inboxes and are merged into the destination queue, where the
//! origin-based key restores the global order. A one-shard world has no
//! cross-shard traffic, so its lookahead is unbounded and one window spans
//! the whole run.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::ctx::{Command, Ctx};
use crate::event::{Event, EventKey, EventQueue, TimerId, DRIVER_ORIGIN};
use crate::metrics::{keys, Metrics, MetricsSnapshot};
use crate::net::{LatencyModel, Network};
use crate::node::{Address, NodeId, NodeSlot, Service};
use crate::remote::{InjectError, RemoteEvent};
use crate::rng::SimRng;
use crate::stable::{StableFactory, StableStore};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind, TraceRecord};

/// Static configuration of a [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed for the deterministic random streams.
    pub seed: u64,
    /// Inter-node message latency model.
    pub latency: LatencyModel,
    /// Delivery delay for messages between services on the same node.
    pub local_delay: SimDuration,
    /// Whether to record a kernel trace.
    pub trace: bool,
    /// Maximum number of trace records kept.
    pub trace_cap: usize,
    /// Number of shards the nodes are partitioned into. `1` (the default)
    /// runs every event on the calling thread; results are identical at
    /// any value. `0` means **auto**: one shard per available hardware
    /// thread ([`std::thread::available_parallelism`]), falling back to one
    /// shard when the latency model has no usable lookahead.
    pub shards: usize,
    /// Stable-storage backend constructor used for every node. The default
    /// is the reference in-memory backend; results are identical with any
    /// conformant backend.
    pub stable: StableFactory,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            latency: LatencyModel::lan(),
            local_delay: SimDuration::from_micros(10),
            trace: false,
            trace_cap: 100_000,
            shards: 1,
            stable: StableFactory::default(),
        }
    }
}

impl WorldConfig {
    /// Convenience constructor with just a seed.
    pub fn with_seed(seed: u64) -> Self {
        WorldConfig {
            seed,
            ..WorldConfig::default()
        }
    }
}

/// Execution profile of a sharded run, collected when
/// [`World::set_shard_profiling`] is on (see that method for the exact
/// measurement mode). All values accumulate across runs.
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Number of conservative time windows executed.
    pub windows: u64,
    /// Busy (event-processing) wall time per shard, in nanoseconds.
    pub busy_ns: Vec<u64>,
    /// Critical-path time: the sum over windows of the *maximum* per-shard
    /// busy time in that window — the time an ideal parallel execution of
    /// the same schedule needs, independent of how many cores the host
    /// actually has.
    pub critical_ns: u64,
}

/// Per-shard state: the nodes owned by this shard plus everything their
/// callbacks touch. A `Shard` is self-contained so a worker thread can
/// process it with `&mut` while other shards run in parallel.
struct Shard {
    id: usize,
    n_shards: usize,
    n_nodes: usize,
    queue: EventQueue,
    slots: Vec<NodeSlot>,
    cancelled: BTreeSet<TimerId>,
    /// Replica of the network state; all shards apply the same link events,
    /// so replicas never diverge.
    net: Network,
    metrics: Metrics,
    trace: Trace,
    /// Records drained from `trace` after each event, tagged with the key
    /// of the event that produced them for the deterministic global merge.
    trace_buf: Vec<(SimTime, u64, u64, TraceRecord)>,
    /// Cross-shard events created while processing: `(dest_shard, key, ev)`.
    outbox: Vec<(usize, EventKey, Event)>,
    /// Nodes owned by another process (see [`World::mark_remote`]); events
    /// routed to them are diverted into `egress` instead of a queue.
    remote: Vec<bool>,
    /// Deliveries destined to remote nodes, with their keys, awaiting
    /// [`World::take_remote_egress`].
    egress: Vec<RemoteEvent>,
}

impl Shard {
    fn local_slot(&self, node: NodeId) -> Option<usize> {
        let i = node.0 as usize;
        if node != NodeId::EXTERNAL && i < self.n_nodes && i % self.n_shards == self.id {
            Some(i / self.n_shards)
        } else {
            None
        }
    }

    fn owned_slot(&mut self, node: NodeId) -> &mut NodeSlot {
        let idx = self
            .local_slot(node)
            .expect("node not hosted on this shard");
        &mut self.slots[idx]
    }

    fn is_remote(&self, node: NodeId) -> bool {
        self.remote.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Shard that will process events addressed to `node`; events for
    /// addresses outside the world stay on this shard (and are dropped at
    /// delivery time, exactly like the pre-sharding kernel).
    fn shard_of_or_self(&self, node: NodeId) -> usize {
        let i = node.0 as usize;
        if node != NodeId::EXTERNAL && i < self.n_nodes {
            i % self.n_shards
        } else {
            self.id
        }
    }

    /// Processes one event popped from this shard's queue.
    fn process_event(&mut self, key: EventKey, ev: Event) {
        let now = key.0;
        // Link events are replicated into every shard queue so each replica
        // of the network stays current; only shard 0 accounts for them, so
        // counters and the trace are independent of the shard count.
        let is_link = matches!(ev, Event::LinkDown { .. } | Event::LinkUp { .. });
        if !is_link || self.id == 0 {
            self.metrics.inc(keys::EVENTS);
        }
        match ev {
            Event::Deliver { from, to, payload } => self.handle_deliver(now, from, to, payload),
            Event::Timer {
                node,
                service,
                id,
                tag,
                epoch,
            } => self.handle_timer(now, node, service, id, tag, epoch),
            Event::NodeDown { node } => self.crash_now_internal(now, node),
            Event::NodeUp { node } => self.recover_now_internal(now, node),
            Event::LinkDown { a, b } => self.set_link_internal(now, a, b, false),
            Event::LinkUp { a, b } => self.set_link_internal(now, a, b, true),
        }
        self.drain_trace(key);
    }

    /// Moves records produced while handling the event keyed `key` into the
    /// merge buffer.
    fn drain_trace(&mut self, key: EventKey) {
        if self.trace.enabled() {
            for rec in self.trace.take_records() {
                self.trace_buf.push((rec.at, key.1, key.2, rec));
            }
        }
    }

    /// Pops and processes every queued event with `time < end`.
    fn process_until(&mut self, end_us: u64) {
        while let Some(key) = self.queue.peek_key() {
            if key.0.as_micros() >= end_us {
                break;
            }
            let (key, ev) = self.queue.pop().expect("peeked event vanished");
            self.process_event(key, ev);
        }
    }

    fn with_service<F>(&mut self, now: SimTime, node: NodeId, service: &'static str, f: F) -> bool
    where
        F: FnOnce(&mut Box<dyn Service>, &mut Ctx<'_>),
    {
        let mut commands = Vec::new();
        let idx = self
            .local_slot(node)
            .expect("node not hosted on this shard");
        let found = {
            let slot = &mut self.slots[idx];
            match slot.services.remove(service) {
                Some(mut svc) => {
                    // Group-commit bracket: every stable mutation the
                    // callback makes becomes durable in one barrier here —
                    // this is what turns a step transaction's many small
                    // writes into a single backend commit.
                    slot.stable.begin_batch();
                    {
                        let mut ctx = Ctx {
                            now,
                            node: slot.id,
                            service,
                            epoch: slot.epoch,
                            stable: &mut slot.stable,
                            rng: &mut slot.rng,
                            metrics: &self.metrics,
                            trace: &mut self.trace,
                            timer_seq: &mut slot.timer_seq,
                            commands: &mut commands,
                        };
                        f(&mut svc, &mut ctx);
                    }
                    if slot.stable.commit() {
                        self.metrics.inc(keys::STABLE_COMMITS);
                    }
                    slot.services.insert(service, svc);
                    true
                }
                None => false,
            }
        };
        self.apply(now, commands);
        found
    }

    fn apply(&mut self, now: SimTime, commands: Vec<Command>) {
        for cmd in commands {
            match cmd {
                Command::Send { from, to, payload } => self.route(now, from, to, payload),
                Command::SetTimer {
                    node,
                    service,
                    id,
                    tag,
                    epoch,
                    delay,
                } => {
                    let at = now + delay;
                    let seq = self.owned_slot(node).next_event_seq();
                    self.queue.push(
                        (at, node.0 as u64, seq),
                        Event::Timer {
                            node,
                            service,
                            id,
                            tag,
                            epoch,
                        },
                    );
                }
                Command::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    /// Routes a message sent by a node hosted on this shard. Latency (and
    /// thus the event key) comes from the sender's own stream, so it does
    /// not depend on the shard layout.
    fn route(&mut self, now: SimTime, from: Address, to: Address, payload: Vec<u8>) {
        let sidx = self.local_slot(from.node).expect("send from foreign node");
        let latency = {
            let slot = &mut self.slots[sidx];
            self.net
                .delivery_latency(from.node, to.node, payload.len(), &mut slot.rng)
        };
        match latency {
            Some(latency) => {
                let at = now + latency;
                let seq = self.slots[sidx].next_event_seq();
                let key = (at, from.node.0 as u64, seq);
                // A remote destination gets the event — key and all — in
                // the egress buffer; the owning process re-inserts it, so
                // the global order is unchanged by the process split.
                if self.is_remote(to.node) {
                    self.egress.push(remote_event(key, from, to, payload));
                    return;
                }
                let dest = self.shard_of_or_self(to.node);
                let ev = Event::Deliver { from, to, payload };
                if dest == self.id {
                    self.queue.push(key, ev);
                } else {
                    self.outbox.push((dest, key, ev));
                }
            }
            None => {
                self.metrics.inc(keys::MSGS_DROPPED_LINK_DOWN);
                self.trace.record(
                    now,
                    TraceKind::MsgDroppedLinkDown {
                        from: from.node.0,
                        to: to.node.0,
                    },
                );
            }
        }
    }

    fn handle_deliver(&mut self, now: SimTime, from: Address, to: Address, payload: Vec<u8>) {
        let Some(idx) = self.local_slot(to.node) else {
            // Destination outside the world (e.g. EXTERNAL): dropped silently.
            return;
        };
        if !self.slots[idx].up {
            self.metrics.inc(keys::MSGS_DROPPED_NODE_DOWN);
            self.trace
                .record(now, TraceKind::MsgDroppedNodeDown { node: to.node.0 });
            return;
        }
        if self.trace.enabled() {
            self.trace.record(
                now,
                TraceKind::MsgDelivered {
                    from: (from.node.0, from.service.to_owned()),
                    to: (to.node.0, to.service.to_owned()),
                    bytes: payload.len(),
                },
            );
        }
        let delivered = self.with_service(now, to.node, to.service, |svc, ctx| {
            svc.on_message(ctx, from, &payload)
        });
        if delivered {
            self.metrics.inc(keys::MSGS_DELIVERED);
        }
    }

    fn handle_timer(
        &mut self,
        now: SimTime,
        node: NodeId,
        service: &'static str,
        id: TimerId,
        tag: u64,
        epoch: u64,
    ) {
        if self.cancelled.remove(&id) {
            return;
        }
        let Some(idx) = self.local_slot(node) else {
            return;
        };
        {
            let slot = &self.slots[idx];
            // Timers set before a crash must not fire into the rebuilt world.
            if !slot.up || slot.epoch != epoch {
                return;
            }
        }
        let fired = self.with_service(now, node, service, |svc, ctx| svc.on_timer(ctx, tag));
        if fired {
            self.metrics.inc(keys::TIMERS_FIRED);
            self.trace.record(
                now,
                TraceKind::TimerFired {
                    node: node.0,
                    service: service.to_owned(),
                    tag,
                },
            );
        }
    }

    fn crash_now_internal(&mut self, now: SimTime, node: NodeId) {
        let slot = self.owned_slot(node);
        if !slot.up {
            return;
        }
        slot.crash();
        self.metrics.inc(keys::NODE_CRASHES);
        self.trace
            .record(now, TraceKind::NodeCrashed { node: node.0 });
    }

    fn recover_now_internal(&mut self, now: SimTime, node: NodeId) {
        let slot = self.owned_slot(node);
        if slot.up {
            return;
        }
        slot.rebuild();
        self.metrics.inc(keys::NODE_RECOVERIES);
        self.trace
            .record(now, TraceKind::NodeRecovered { node: node.0 });
        self.start_services(now, node);
    }

    /// Runs `on_start` on every service of `node`, in name order.
    fn start_services(&mut self, now: SimTime, node: NodeId) {
        let names: Vec<&'static str> = self.owned_slot(node).services.keys().copied().collect();
        for name in names {
            self.with_service(now, node, name, |svc, ctx| svc.on_start(ctx));
        }
    }

    fn set_link_internal(&mut self, now: SimTime, a: NodeId, b: NodeId, up: bool) {
        self.net.set_link(a, b, up);
        if self.id == 0 {
            self.trace
                .record(now, TraceKind::LinkChanged { a: a.0, b: b.0, up });
        }
    }
}

/// Packs a keyed delivery into its wire-facing form for the egress buffer.
fn remote_event(key: EventKey, from: Address, to: Address, payload: Vec<u8>) -> RemoteEvent {
    RemoteEvent {
        at_us: key.0.as_micros(),
        origin: key.1,
        seq: key.2,
        from_node: from.node.0,
        from_service: from.service.to_owned(),
        to_node: to.node.0,
        to_service: to.service.to_owned(),
        payload,
    }
}

/// End (exclusive) of the conservative window that starts at the global
/// minimum pending time `min_us`: `min_us + lookahead_us`, capped just past
/// `until_us` and never empty. Nothing created inside the window can land
/// before its end, because every cross-shard (or cross-process) delivery
/// costs at least `lookahead_us`. The in-process kernel and a distributed
/// coordinator both cut windows with this formula.
pub fn window_end(min_us: u64, lookahead_us: u64, until_us: u64) -> u64 {
    min_us
        .saturating_add(lookahead_us)
        .min(until_us.saturating_add(1))
        .max(min_us.saturating_add(1))
}

/// Window value that tells the workers of [`World::run_windows`] to stop
/// (a real window end is always at least 1).
const DONE: u64 = 0;

/// State shared by the workers of one [`World::run_windows`] call.
struct WindowSync {
    barrier: Barrier,
    until_us: u64,
    lookahead_us: u64,
    /// End of the current window, fixed by the barrier leader, or [`DONE`].
    window: AtomicU64,
    /// Minimum pending time over every shard, published before each window.
    next_min: AtomicU64,
    windows: AtomicU64,
    /// Cross-shard events awaiting their destination shard's next drain.
    inboxes: Vec<Mutex<Vec<(EventKey, Event)>>>,
}

impl WindowSync {
    /// One worker's side of the loop over its group of shards, three
    /// barrier waits per window: publish local minima → the leader fixes
    /// the window → process it and deposit cross-shard events → make the
    /// deposits visible. With `profile`, each shard's share of each window
    /// is timed.
    fn work(&self, group: &mut [Shard], mut profile: Option<&mut ShardProfile>) {
        loop {
            let mut local = u64::MAX;
            for shard in group.iter_mut() {
                let items = std::mem::take(&mut *self.inboxes[shard.id].lock().expect("inbox"));
                for (key, ev) in items {
                    shard.queue.push(key, ev);
                }
                if let Some(t) = shard.queue.peek_time() {
                    local = local.min(t.as_micros());
                }
            }
            self.next_min.fetch_min(local, Ordering::AcqRel);
            if self.barrier.wait().is_leader() {
                let m = self.next_min.swap(u64::MAX, Ordering::AcqRel);
                let end = if m == u64::MAX || m > self.until_us {
                    DONE
                } else {
                    self.windows.fetch_add(1, Ordering::Relaxed);
                    window_end(m, self.lookahead_us, self.until_us)
                };
                self.window.store(end, Ordering::Release);
            }
            self.barrier.wait();
            let end = self.window.load(Ordering::Acquire);
            if end == DONE {
                return;
            }
            let mut window_max = 0;
            for shard in group.iter_mut() {
                let t0 = profile.is_some().then(Instant::now);
                shard.process_until(end);
                if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
                    let busy = t0.elapsed().as_nanos() as u64;
                    p.busy_ns[shard.id] += busy;
                    window_max = window_max.max(busy);
                }
                for (dest, key, ev) in shard.outbox.drain(..) {
                    debug_assert!(
                        key.0.as_micros() >= end,
                        "cross-shard event due inside the current window"
                    );
                    self.inboxes[dest].lock().expect("inbox").push((key, ev));
                }
            }
            if let Some(p) = profile.as_deref_mut() {
                p.windows += 1;
                p.critical_ns += window_max;
            }
            self.barrier.wait();
        }
    }
}

/// The deterministic discrete-event world.
pub struct World {
    time: SimTime,
    shards: Vec<Shard>,
    n_nodes: usize,
    /// Canonical network state; shards hold replicas.
    net: Network,
    net_dirty: bool,
    driver_rng: SimRng,
    driver_seq: u64,
    metrics: Metrics,
    trace: Trace,
    seed: u64,
    stable_factory: StableFactory,
    lookahead: SimDuration,
    profiling: bool,
    profile: ShardProfile,
    /// Driver-injected deliveries destined to remote nodes.
    egress: Vec<RemoteEvent>,
}

impl World {
    /// Creates an empty world.
    ///
    /// `cfg.shards == 0` selects the shard count automatically: one shard
    /// per available hardware thread, or a single shard when the latency
    /// model's lookahead is unusable. Results are byte-identical at
    /// any shard count, so auto mode never changes a simulation.
    ///
    /// # Panics
    ///
    /// Panics if an *explicit* `cfg.shards > 1` is combined with a latency
    /// model whose [`LatencyModel::min_latency`] is below 1µs —
    /// conservative parallel windows need strictly positive cross-shard
    /// lookahead.
    pub fn new(cfg: WorldConfig) -> Self {
        let lookahead = cfg.latency.min_latency();
        let n_shards = if cfg.shards == 0 {
            if lookahead >= SimDuration::from_micros(1) {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            } else {
                1
            }
        } else {
            cfg.shards
        };
        assert!(
            n_shards == 1 || lookahead >= SimDuration::from_micros(1),
            "sharded runtime needs >= 1us latency lookahead (base * (1 - jitter)); \
             use shards = 1 with zero-latency models"
        );
        let net = Network::new(cfg.latency, cfg.local_delay);
        let shards = (0..n_shards)
            .map(|id| Shard {
                id,
                n_shards,
                n_nodes: 0,
                queue: EventQueue::new(),
                slots: Vec::new(),
                cancelled: BTreeSet::new(),
                net: net.clone(),
                metrics: Metrics::new(),
                trace: Trace::new(cfg.trace, cfg.trace_cap),
                trace_buf: Vec::new(),
                outbox: Vec::new(),
                remote: Vec::new(),
                egress: Vec::new(),
            })
            .collect();
        World {
            time: SimTime::ZERO,
            shards,
            n_nodes: 0,
            net,
            net_dirty: false,
            driver_rng: SimRng::seed_from(cfg.seed),
            driver_seq: 0,
            metrics: Metrics::new(),
            trace: Trace::new(cfg.trace, cfg.trace_cap),
            seed: cfg.seed,
            stable_factory: cfg.stable,
            lookahead,
            profiling: false,
            profile: ShardProfile {
                windows: 0,
                busy_ns: vec![0; n_shards],
                critical_ns: 0,
            },
            egress: Vec::new(),
        }
    }

    // ----- topology -------------------------------------------------------

    /// Adds a node; ids are assigned densely starting at 0. Node `n` is
    /// hosted on shard `n % shards`.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.n_nodes as u32);
        // The per-node stream depends only on (seed, node id), never on the
        // shard layout or on draws made by other nodes.
        let mut base = SimRng::seed_from(self.seed);
        let rng = base.fork(0x4E0D_E000u64.wrapping_add(id.0 as u64));
        let s = self.n_nodes % self.shards.len();
        let stable = self.stable_factory.make_store(id);
        self.shards[s].slots.push(NodeSlot::new(id, rng, stable));
        self.n_nodes += 1;
        for sh in &mut self.shards {
            sh.n_nodes = self.n_nodes;
            sh.remote.push(false);
        }
        id
    }

    /// Registers a service on `node`. The factory is also used to rebuild
    /// the service after a crash. Call before [`World::start`].
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the name is already taken.
    pub fn add_service<F>(&mut self, node: NodeId, name: &'static str, factory: F)
    where
        F: Fn() -> Box<dyn Service> + Send + 'static,
    {
        let slot = self.slot_mut(node);
        assert!(
            !slot.services.contains_key(name),
            "service {name} already registered on {node}"
        );
        slot.services.insert(name, factory());
        slot.factories.push((name, Box::new(factory)));
    }

    /// Invokes `on_start` on every service (nodes in id order, services in
    /// name order). Call once after wiring the topology.
    pub fn start(&mut self) {
        self.sync_replicas_if_dirty();
        for node in self.node_ids() {
            let (s, now) = (self.shard_of(node), self.time);
            self.driver_call_on_shard(s, |sh| sh.start_services(now, node));
        }
        self.sync();
    }

    // ----- time -----------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Runs all events with `time <= until`, then advances the clock to
    /// `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.sync_replicas_if_dirty();
        self.run_windows(until.as_micros());
        self.time = self.time.max(until);
        self.sync();
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.time + d;
        self.run_until(until);
    }

    // ----- failures -------------------------------------------------------

    /// Crashes `node` immediately: volatile state is lost, stable storage
    /// survives. No-op if already down.
    pub fn crash_now(&mut self, node: NodeId) {
        self.sync_replicas_if_dirty();
        let s = self.shard_of(node);
        let now = self.time;
        self.driver_call_on_shard(s, |sh| sh.crash_now_internal(now, node));
        self.sync();
    }

    /// Recovers `node` immediately: services are rebuilt from factories and
    /// `on_start` runs on each. No-op if already up.
    pub fn recover_now(&mut self, node: NodeId) {
        self.sync_replicas_if_dirty();
        let s = self.shard_of(node);
        let now = self.time;
        self.driver_call_on_shard(s, |sh| sh.recover_now_internal(now, node));
        self.sync();
    }

    /// Crashes `node` now and schedules recovery after `downtime`.
    pub fn crash_for(&mut self, node: NodeId, downtime: SimDuration) {
        self.crash_now(node);
        self.schedule_recover(self.time + downtime, node);
    }

    /// Schedules a crash at absolute time `at` (clamped to now).
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        let key = self.next_driver_key(at.max(self.time));
        let s = self.shard_of(node);
        self.shards[s].queue.push(key, Event::NodeDown { node });
    }

    /// Schedules a recovery at absolute time `at` (clamped to now).
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        let key = self.next_driver_key(at.max(self.time));
        let s = self.shard_of(node);
        self.shards[s].queue.push(key, Event::NodeUp { node });
    }

    /// Schedules a link state change at absolute time `at`. The event is
    /// replicated into every shard queue (same key) so each network replica
    /// applies it at the right point in virtual time.
    pub fn schedule_link(&mut self, at: SimTime, a: NodeId, b: NodeId, up: bool) {
        let key = self.next_driver_key(at.max(self.time));
        for sh in &mut self.shards {
            let ev = if up {
                Event::LinkUp { a, b }
            } else {
                Event::LinkDown { a, b }
            };
            sh.queue.push(key, ev);
        }
    }

    // ----- injection & inspection ------------------------------------------

    /// Injects a message from the outside world (e.g. the agent owner).
    pub fn post(&mut self, to: Address, payload: Vec<u8>) {
        self.sync_replicas_if_dirty();
        self.metrics.add(keys::BYTES_SENT, payload.len() as u64);
        match self.net.delivery_latency(
            NodeId::EXTERNAL,
            to.node,
            payload.len(),
            &mut self.driver_rng,
        ) {
            Some(latency) => {
                let at = self.time + latency;
                let key = self.next_driver_key(at);
                // Latency draw, byte accounting, and the driver key are
                // identical whether the destination is local or remote, so
                // a process split never shifts the schedule.
                if self.is_remote(to.node) {
                    self.egress
                        .push(remote_event(key, Address::external(), to, payload));
                    return;
                }
                let dest = self.shard_of(to.node);
                self.shards[dest].queue.push(
                    key,
                    Event::Deliver {
                        from: Address::external(),
                        to,
                        payload,
                    },
                );
            }
            None => {
                self.metrics.inc(keys::MSGS_DROPPED_LINK_DOWN);
                self.trace.record(
                    self.time,
                    TraceKind::MsgDroppedLinkDown {
                        from: NodeId::EXTERNAL.0,
                        to: to.node.0,
                    },
                );
            }
        }
    }

    /// Immutable access to a node's stable storage (test inspection).
    pub fn stable(&self, node: NodeId) -> &StableStore {
        &self.slot(node).stable
    }

    /// Mutable access to a node's stable storage (test setup).
    pub fn stable_mut(&mut self, node: NodeId) -> &mut StableStore {
        &mut self.slot_mut(node).stable
    }

    /// Commit barrier across every **local** node's stable store: any
    /// pending mutations are made crash-durable now. The kernel already
    /// brackets every event in `begin_batch`/`commit`, so at a quiescent
    /// point this is a no-op safety net; a graceful shutdown calls it so a
    /// restart never depends on torn-tail discard. Returns how many stores
    /// actually had pending work.
    pub fn flush_stable(&mut self) -> u64 {
        let mut flushed = 0;
        for node in self.node_ids() {
            if self.is_remote(node) {
                continue;
            }
            if self.stable_mut(node).commit() {
                flushed += 1;
            }
        }
        flushed
    }

    /// Backend durability stats summed over every **local** node's stable
    /// store — recovery-cost reporting for supervised restarts.
    pub fn stable_totals(&self) -> crate::stable::BackendStats {
        let mut total = crate::stable::BackendStats::default();
        for node in self.node_ids() {
            if self.is_remote(node) {
                continue;
            }
            let s = self.stable(node).backend_stats();
            total.commits += s.commits;
            total.records += s.records;
            total.wal_bytes += s.wal_bytes;
            total.checkpoints += s.checkpoints;
            total.checkpoint_bytes += s.checkpoint_bytes;
            total.recoveries += s.recoveries;
            total.replayed_records += s.replayed_records;
            total.replayed_bytes += s.replayed_bytes;
            total.torn_bytes_discarded += s.torn_bytes_discarded;
        }
        total
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slot(node).up
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// All node ids in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.n_nodes as u32).map(NodeId).collect()
    }

    /// Downcasts a service for direct inspection or driving from tests.
    pub fn service_mut<T: Service>(&mut self, node: NodeId, name: &'static str) -> Option<&mut T> {
        let slot = self.slot_mut(node);
        let svc = slot.services.get_mut(name)?;
        let any: &mut dyn std::any::Any = svc.as_mut();
        any.downcast_mut::<T>()
    }

    /// Read-only access to a hosted service instance — the non-mutating
    /// sibling of [`World::service_mut`], for driver-side inspection
    /// (audits, test assertions) that must not require `&mut World`.
    pub fn service<T: Service>(&self, node: NodeId, name: &'static str) -> Option<&T> {
        let slot = self.slot(node);
        let svc = slot.services.get(name)?;
        let any: &dyn std::any::Any = svc.as_ref();
        any.downcast_ref::<T>()
    }

    /// The metrics registry. Recording takes `&self`, so read-only probe
    /// paths can count their own work.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Convenience snapshot of the metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The kernel trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The network (for link control). Changes are propagated to shard
    /// replicas before the next event is processed.
    pub fn net_mut(&mut self) -> &mut Network {
        self.net_dirty = true;
        &mut self.net
    }

    /// The network state.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Derives an independent random stream (e.g. for failure planning)
    /// from the driver's stream.
    pub fn rng_fork(&mut self, tag: u64) -> SimRng {
        self.driver_rng.fork(tag)
    }

    /// Number of events waiting across all shard queues. Link state changes
    /// are replicated per shard and count once per replica.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Number of shards the world was configured with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Enables critical-path profiling. While on, `run_until`/`run_for`
    /// execute the same conservative windows as unprofiled runs, but the
    /// calling thread processes every shard, timing each shard's share of
    /// each window and accumulating per-shard busy time and the critical
    /// path (max busy per window, summed) into [`World::shard_profile`].
    /// This measures the parallel schedule's span exactly, independent of
    /// host core count; virtual-time results are identical to unprofiled
    /// runs.
    pub fn set_shard_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// The accumulated profile (see [`World::set_shard_profiling`]).
    pub fn shard_profile(&self) -> &ShardProfile {
        &self.profile
    }

    // ----- distributed execution seam ---------------------------------------

    /// Marks `node` as **remote**: owned by another process in a
    /// distributed deployment. The node keeps its id, its random stream,
    /// and its slot (so local nodes' schedules are unaffected), but events
    /// routed to it are diverted — with their deterministic keys — into the
    /// egress buffer ([`World::take_remote_egress`]) instead of a queue.
    ///
    /// Register no services on remote nodes; mark before [`World::start`].
    pub fn mark_remote(&mut self, node: NodeId) {
        let i = node.0 as usize;
        assert!(i < self.n_nodes, "mark_remote: unknown node {node}");
        for sh in &mut self.shards {
            sh.remote[i] = true;
        }
    }

    /// Whether `node` is marked remote.
    pub fn is_remote(&self, node: NodeId) -> bool {
        self.shards[0].is_remote(node)
    }

    /// Drains every delivery diverted to remote nodes since the last call,
    /// in a deterministic order (driver injections first, then shard id
    /// order). The events carry their `(time, origin, seq)` keys; ship them
    /// to the owning process and re-insert with [`World::inject_remote`].
    pub fn take_remote_egress(&mut self) -> Vec<RemoteEvent> {
        let mut out = std::mem::take(&mut self.egress);
        for sh in &mut self.shards {
            out.append(&mut sh.egress);
        }
        out
    }

    /// Re-inserts a delivery diverted by a peer world's remote-egress seam.
    /// The destination must be a local (non-remote) node of this world; the
    /// event joins the queue under its original key, restoring the exact
    /// global order of the single-process simulation.
    ///
    /// # Errors
    ///
    /// [`InjectError::NotLocal`] if the destination node is unknown or
    /// marked remote here; [`InjectError::InPast`] if the event is due
    /// before this world's clock. A refused event is not queued.
    pub fn inject_remote(&mut self, ev: RemoteEvent) -> Result<(), InjectError> {
        let node = NodeId(ev.to_node);
        if node.0 as usize >= self.n_nodes || self.is_remote(node) {
            return Err(InjectError::NotLocal { node: node.0 });
        }
        if ev.at() < self.time {
            return Err(InjectError::InPast {
                at_us: ev.at_us,
                now_us: self.time.as_micros(),
            });
        }
        let (from, to) = (ev.from_address(), ev.to_address());
        let dest = self.shard_of(node);
        self.shards[dest].queue.push(
            (ev.at(), ev.origin, ev.seq),
            Event::Deliver {
                from,
                to,
                payload: ev.payload,
            },
        );
        Ok(())
    }

    /// Earliest pending event time across all queues, in microseconds —
    /// the local contribution to a distributed coordinator's global-minimum
    /// computation.
    pub fn local_min_us(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|sh| sh.queue.peek_time())
            .map(|t| t.as_micros())
            .min()
    }

    /// Processes every queued event with `time < end_us` — one conservative
    /// window of a distributed lockstep run, itself split into the kernel's
    /// own windows when this world has several shards. The window end must
    /// come from the coordinator's global-minimum formula ([`window_end`])
    /// so no in-window event is still in flight between processes. The
    /// clock advances to `end_us - 1` (the last instant processed); the
    /// coordinator finalizes run boundaries with
    /// [`World::advance_clock_to`].
    pub fn run_window(&mut self, end_us: u64) {
        if let Some(last) = end_us.checked_sub(1) {
            self.run_until(SimTime::from_micros(last));
        }
    }

    /// Advances the clock to `us` microseconds without processing events
    /// (no-op if the clock is already past). Used by distributed runs to
    /// finalize a `run_until` boundary, and by a restarted process to
    /// resume at the coordinator's current time before [`World::start`]
    /// replays recovery.
    pub fn advance_clock_to(&mut self, us: u64) {
        let t = SimTime::from_micros(us);
        if t > self.time {
            self.time = t;
        }
        self.sync();
    }

    // ----- internals --------------------------------------------------------

    fn slot(&self, node: NodeId) -> &NodeSlot {
        let n = self.shards.len();
        &self.shards[node.0 as usize % n].slots[node.0 as usize / n]
    }

    fn slot_mut(&mut self, node: NodeId) -> &mut NodeSlot {
        let n = self.shards.len();
        &mut self.shards[node.0 as usize % n].slots[node.0 as usize / n]
    }

    /// Shard that processes events addressed to `node` (shard 0 for
    /// addresses outside the world).
    fn shard_of(&self, node: NodeId) -> usize {
        self.shards[0].shard_of_or_self(node)
    }

    fn next_driver_key(&mut self, at: SimTime) -> EventKey {
        let key = (at, DRIVER_ORIGIN, self.driver_seq);
        self.driver_seq += 1;
        key
    }

    /// Runs a driver-initiated action on one shard and files any trace
    /// records it produced under a fresh driver key.
    fn driver_call_on_shard(&mut self, s: usize, f: impl FnOnce(&mut Shard)) {
        let key = self.next_driver_key(self.time);
        let shard = &mut self.shards[s];
        f(shard);
        shard.drain_trace(key);
        self.drain_outboxes();
    }

    /// Moves cross-shard events deposited in outboxes by driver calls into
    /// the destination queues (the dispatch loop uses inboxes instead).
    fn drain_outboxes(&mut self) {
        for i in 0..self.shards.len() {
            if self.shards[i].outbox.is_empty() {
                continue;
            }
            let items = std::mem::take(&mut self.shards[i].outbox);
            for (dest, key, ev) in items {
                self.shards[dest].queue.push(key, ev);
            }
        }
    }

    /// The kernel's one dispatch loop: runs conservative windows over every
    /// shard until no event is due at or before `until_us`. Unprofiled,
    /// each shard gets its own worker thread, the calling thread being
    /// worker 0; with one shard, or with profiling on, the calling thread
    /// processes every shard and nothing is spawned.
    fn run_windows(&mut self, until_us: u64) {
        let n = self.shards.len();
        let workers = if n == 1 || self.profiling { 1 } else { n };
        let sync = WindowSync {
            barrier: Barrier::new(workers),
            until_us,
            // A lone shard receives no cross-shard events: one window can
            // span the whole run.
            lookahead_us: if n == 1 {
                u64::MAX
            } else {
                self.lookahead.as_micros()
            },
            window: AtomicU64::new(DONE),
            next_min: AtomicU64::new(u64::MAX),
            windows: AtomicU64::new(0),
            inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        };
        let profile = self.profiling.then_some(&mut self.profile);
        std::thread::scope(|scope| {
            let mut groups = self.shards.chunks_mut(n / workers);
            let caller = groups.next().expect("a world has at least one shard");
            for group in groups {
                let sync = &sync;
                scope.spawn(move || sync.work(group, None));
            }
            sync.work(caller, profile);
        });
        // Window counts describe the engine, not the simulation; a one-shard
        // world reports none, so it matches a process-split control.
        if n > 1 {
            self.metrics.add(keys::WINDOWS, sync.windows.into_inner());
        }
    }

    fn sync_replicas_if_dirty(&mut self) {
        if self.net_dirty {
            for sh in &mut self.shards {
                sh.net = self.net.clone();
            }
            self.net_dirty = false;
        }
    }

    /// Folds shard-local state into the world-level views: metrics (shard
    /// id order; counter addition is commutative so totals are layout
    /// independent), trace records (stable merge by event key), and the
    /// canonical network (all replicas are identical — copy shard 0's).
    /// Runs at the end of every public mutating entry point, so `&self`
    /// accessors always see up-to-date global state.
    fn sync(&mut self) {
        self.sync_replicas_if_dirty();
        for sh in &self.shards {
            self.metrics.absorb(&sh.metrics);
        }
        if self.trace.enabled() {
            let mut recs: Vec<(SimTime, u64, u64, TraceRecord)> = Vec::new();
            for sh in &mut self.shards {
                self.trace.add_dropped(sh.trace.dropped());
                sh.trace.clear();
                recs.append(&mut sh.trace_buf);
            }
            recs.sort_by_key(|r| (r.0, r.1, r.2));
            for (_, _, _, rec) in recs {
                self.trace.push_record(rec);
            }
        } else {
            for sh in &mut self.shards {
                sh.trace_buf.clear();
            }
        }
        if let Some(sh) = self.shards.first() {
            self.net = sh.net.clone();
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time", &self.time)
            .field("nodes", &self.n_nodes)
            .field("shards", &self.shards.len())
            .field("pending_events", &self.pending_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every message back to the sender and counts deliveries.
    struct Echo {
        seen: u32,
    }

    impl Service for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Address, payload: &[u8]) {
            self.seen += 1;
            if from.node != NodeId::EXTERNAL && payload != b"stop" {
                ctx.send(from, b"stop".to_vec());
            }
        }
    }

    /// Sends one message to a peer when started.
    struct Starter {
        peer: Address,
    }

    impl Service for Starter {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Address, _payload: &[u8]) {}
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, b"hello".to_vec());
        }
    }

    fn two_node_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(WorldConfig::with_seed(1));
        let a = w.add_node();
        let b = w.add_node();
        (w, a, b)
    }

    #[test]
    fn message_roundtrip() {
        let (mut w, a, b) = two_node_world();
        let echo_b = Address::new(b, "echo");
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.add_service(a, "starter", move || Box::new(Starter { peer: echo_b }));
        w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
        w.start();
        w.run_for(SimDuration::from_secs(1));
        // starter(a) -> echo(b) -> reply lands back on starter(a).
        assert_eq!(w.service_mut::<Echo>(b, "echo").unwrap().seen, 1);
        assert_eq!(w.service_mut::<Echo>(a, "echo").unwrap().seen, 0);
        assert_eq!(w.metrics().counter(keys::MSGS_DELIVERED), 2);
    }

    #[test]
    fn post_injects_external_messages() {
        let (mut w, a, _) = two_node_world();
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.start();
        w.post(Address::new(a, "echo"), b"x".to_vec());
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.service_mut::<Echo>(a, "echo").unwrap().seen, 1);
    }

    #[test]
    fn crash_drops_in_flight_and_resets_state() {
        let (mut w, a, b) = two_node_world();
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
        w.start();
        w.post(Address::new(b, "echo"), b"x".to_vec());
        w.crash_now(b); // message still in flight
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.metrics().counter(keys::MSGS_DROPPED_NODE_DOWN), 1);
        assert!(!w.is_up(b));
        w.recover_now(b);
        assert!(w.is_up(b));
        // State was rebuilt from the factory.
        assert_eq!(w.service_mut::<Echo>(b, "echo").unwrap().seen, 0);
        let _ = a;
    }

    #[test]
    fn link_down_drops_at_send_time() {
        let (mut w, a, b) = two_node_world();
        w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
        let target = Address::new(b, "echo");
        w.add_service(a, "starter", move || Box::new(Starter { peer: target }));
        w.net_mut().set_link(a, b, false);
        w.start();
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.metrics().counter(keys::MSGS_DROPPED_LINK_DOWN), 1);
        assert_eq!(w.service_mut::<Echo>(b, "echo").unwrap().seen, 0);
    }

    /// Sets a timer on start; counts fires.
    struct Ticker {
        fires: u32,
        period: SimDuration,
    }

    impl Service for Ticker {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Address, _payload: &[u8]) {}
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            self.fires += 1;
            if self.fires < 3 {
                ctx.set_timer(self.period, 1);
            }
        }
    }

    #[test]
    fn timers_fire_and_respect_crash_epochs() {
        let (mut w, a, _) = two_node_world();
        w.add_service(a, "tick", || {
            Box::new(Ticker {
                fires: 0,
                period: SimDuration::from_millis(10),
            })
        });
        w.start();
        w.run_for(SimDuration::from_millis(15));
        assert_eq!(w.service_mut::<Ticker>(a, "tick").unwrap().fires, 1);
        // Crash: pending timer (set at 10ms for 20ms) must not fire after recovery,
        // but on_start arms a fresh one.
        w.crash_for(a, SimDuration::from_millis(1));
        w.run_for(SimDuration::from_millis(100));
        let t = w.service_mut::<Ticker>(a, "tick").unwrap();
        assert_eq!(t.fires, 3, "fresh timers only, from the rebuilt service");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut w, _, _) = two_node_world();
        w.run_until(SimTime::from_micros(500));
        assert_eq!(w.now(), SimTime::from_micros(500));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (MetricsSnapshot, Vec<crate::trace::TraceRecord>) {
            let mut cfg = WorldConfig::with_seed(seed);
            cfg.trace = true;
            let mut w = World::new(cfg);
            let a = w.add_node();
            let b = w.add_node();
            let echo_b = Address::new(b, "echo");
            w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
            w.add_service(a, "starter", move || Box::new(Starter { peer: echo_b }));
            w.add_service(b, "echo", || Box::new(Echo { seen: 0 }));
            w.start();
            w.crash_for(b, SimDuration::from_millis(3));
            w.run_for(SimDuration::from_secs(1));
            (w.snapshot(), w.trace().records().to_vec())
        }
        let (m1, t1) = run(7);
        let (m2, t2) = run(7);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        let (_, t3) = run(8);
        assert_ne!(t1, t3, "different seeds should change jitter timings");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_service_name_panics() {
        let (mut w, a, _) = two_node_world();
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
        w.add_service(a, "echo", || Box::new(Echo { seen: 0 }));
    }

    // ----- sharded runtime ---------------------------------------------------

    /// Observable outcome of [`shard_scenario`]: metrics snapshot, trace,
    /// and a per-node stable-store dump.
    type ScenarioOutcome = (
        MetricsSnapshot,
        Vec<TraceRecord>,
        Vec<Vec<(String, Vec<u8>)>>,
    );

    /// Builds a busy little world: 6 nodes, echo + ping-pong + tickers, a
    /// scheduled mid-run crash and a link flap, started and kicked.
    fn shard_world(shards: usize, profiling: bool) -> (World, Vec<NodeId>) {
        let mut cfg = WorldConfig::with_seed(42);
        cfg.trace = true;
        cfg.shards = shards;
        let mut w = World::new(cfg);
        let nodes: Vec<NodeId> = (0..6).map(|_| w.add_node()).collect();
        for (i, &n) in nodes.iter().enumerate() {
            w.add_service(n, "echo", || Box::new(Echo { seen: 0 }));
            let peer = Address::new(nodes[(i + 1) % nodes.len()], "echo");
            w.add_service(n, "starter", move || Box::new(Starter { peer }));
            w.add_service(n, "tick", || {
                Box::new(Ticker {
                    fires: 0,
                    period: SimDuration::from_millis(7),
                })
            });
        }
        w.set_shard_profiling(profiling);
        w.start();
        // Persist something per delivery so stable stores diverge if order does.
        w.schedule_crash(SimTime::from_micros(9000), nodes[3]);
        w.schedule_recover(SimTime::from_micros(14000), nodes[3]);
        w.schedule_link(SimTime::from_micros(4000), nodes[1], nodes[2], false);
        w.schedule_link(SimTime::from_micros(21000), nodes[1], nodes[2], true);
        for &n in &nodes {
            w.post(Address::new(n, "echo"), b"kick".to_vec());
        }
        (w, nodes)
    }

    /// Runs [`shard_world`] to 50 ms and returns its observable outcome.
    fn shard_scenario(shards: usize, threaded_runs: bool) -> ScenarioOutcome {
        let (mut w, nodes) = shard_world(shards, false);
        if threaded_runs {
            // Several run_until calls so the dispatch loop stops and restarts.
            for _ in 0..10 {
                w.run_for(SimDuration::from_millis(5));
            }
        } else {
            w.run_until(SimTime::from_micros(50000));
        }
        let stables = nodes
            .iter()
            .map(|&n| {
                w.stable(n)
                    .iter()
                    .map(|(k, v)| (k.to_owned(), v.to_vec()))
                    .collect()
            })
            .collect();
        (w.snapshot(), w.trace().records().to_vec(), stables)
    }

    /// Counters that describe the execution engine rather than the
    /// simulated protocol; they may differ between engines.
    fn strip_engine_counters(m: &mut MetricsSnapshot) {
        m.counters.remove(keys::WINDOWS);
    }

    #[test]
    fn shard_counts_are_observationally_equivalent() {
        let (mut m1, t1, s1) = shard_scenario(1, false);
        for shards in [2, 4] {
            let (mut mn, tn, sn) = shard_scenario(shards, true);
            strip_engine_counters(&mut m1);
            strip_engine_counters(&mut mn);
            assert_eq!(m1, mn, "metrics diverged at shards={shards}");
            assert_eq!(t1, tn, "trace diverged at shards={shards}");
            assert_eq!(s1, sn, "stable stores diverged at shards={shards}");
        }
    }

    #[test]
    fn profiled_runs_match_threaded_and_populate_profile() {
        let (mut m_thr, t_thr, s_thr) = shard_scenario(3, true);
        // Re-run scenario with profiling on.
        let (mut w, nodes) = shard_world(3, true);
        for _ in 0..10 {
            w.run_for(SimDuration::from_millis(5));
        }
        let mut m_prof = w.snapshot();
        strip_engine_counters(&mut m_thr);
        strip_engine_counters(&mut m_prof);
        assert_eq!(m_thr, m_prof);
        assert_eq!(t_thr, w.trace().records());
        for (i, &n) in nodes.iter().enumerate() {
            let dump: Vec<(String, Vec<u8>)> = w
                .stable(n)
                .iter()
                .map(|(k, v)| (k.to_owned(), v.to_vec()))
                .collect();
            assert_eq!(s_thr[i], dump);
        }
        let p = w.shard_profile();
        assert!(p.windows > 0, "profiling should count windows");
        assert_eq!(p.busy_ns.len(), 3);
        assert!(p.critical_ns > 0);
        assert!(
            p.critical_ns <= p.busy_ns.iter().sum::<u64>(),
            "critical path cannot exceed total busy time"
        );
    }

    #[test]
    fn trace_order_is_global_across_shards() {
        let mut cfg = WorldConfig::with_seed(5);
        cfg.shards = 3;
        cfg.trace = true;
        let mut w = World::new(cfg);
        let nodes: Vec<NodeId> = (0..6).map(|_| w.add_node()).collect();
        for &n in &nodes {
            w.add_service(n, "echo", || Box::new(Echo { seen: 0 }));
        }
        w.start();
        for &n in &nodes {
            w.post(Address::new(n, "echo"), b"x".to_vec());
        }
        w.run_for(SimDuration::from_secs(1));
        let times: Vec<SimTime> = w.trace().records().iter().map(|r| r.at).collect();
        assert!(
            times.windows(2).all(|p| p[0] <= p[1]),
            "time went backwards across shards"
        );
        assert_eq!(w.metrics().counter(keys::MSGS_DELIVERED), 6);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_rejects_multiple_shards() {
        let mut cfg = WorldConfig::with_seed(1);
        cfg.latency = LatencyModel::fixed(SimDuration::ZERO, SimDuration::ZERO);
        cfg.shards = 2;
        let _ = World::new(cfg);
    }

    #[test]
    fn auto_shards_resolve_from_parallelism() {
        let mut cfg = WorldConfig::with_seed(1);
        cfg.shards = 0;
        let w = World::new(cfg);
        assert!(w.shard_count() >= 1);

        // With a model that cannot guarantee lookahead, auto mode falls back
        // to sequential instead of panicking like an explicit request would.
        let mut cfg = WorldConfig::with_seed(1);
        cfg.latency = LatencyModel::fixed(SimDuration::ZERO, SimDuration::ZERO);
        cfg.shards = 0;
        assert_eq!(World::new(cfg).shard_count(), 1);
    }

    // ----- remote-egress seam ------------------------------------------------

    /// Ping-pongs with a peer, persisting every delivery, so a process
    /// split that reorders or loses anything shows up in stable dumps.
    struct Pinger {
        peer: Address,
        count: u32,
    }

    impl Service for Pinger {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Address, payload: &[u8]) {
            self.count += 1;
            ctx.stable_put(format!("seen/{:03}", self.count), payload.to_vec());
            if self.count < 5 {
                ctx.send(self.peer, vec![self.count as u8]);
            }
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, b"go".to_vec());
        }
    }

    fn pinger_world(owned: Option<&[u32]>, shards: usize) -> World {
        let mut cfg = WorldConfig::with_seed(11);
        cfg.shards = shards;
        let mut w = World::new(cfg);
        let nodes: Vec<NodeId> = (0..4).map(|_| w.add_node()).collect();
        for (i, &n) in nodes.iter().enumerate() {
            let local = match owned {
                Some(set) => set.contains(&n.0),
                None => true,
            };
            if local {
                let peer = Address::new(nodes[(i + 1) % nodes.len()], "ping");
                w.add_service(n, "ping", move || Box::new(Pinger { peer, count: 0 }));
            } else {
                w.mark_remote(n);
            }
        }
        w.start();
        w
    }

    /// Mirrors the coordinator of a distributed run: relay pending egress
    /// (from `start()` or the previous window), then run the next window of
    /// the global-minimum schedule.
    fn run_split_until(worlds: &mut [World], until_us: u64, lookahead_us: u64) {
        loop {
            let egress: Vec<RemoteEvent> = worlds
                .iter_mut()
                .flat_map(World::take_remote_egress)
                .collect();
            for ev in egress {
                let owner = worlds
                    .iter_mut()
                    .find(|w| !w.is_remote(NodeId(ev.to_node)))
                    .expect("every node has an owner");
                owner.inject_remote(ev).expect("relayed event is local");
            }
            let Some(m) = worlds.iter().filter_map(World::local_min_us).min() else {
                break;
            };
            if m > until_us {
                break;
            }
            let end = window_end(m, lookahead_us, until_us);
            for w in worlds.iter_mut() {
                w.run_window(end);
            }
        }
        for w in worlds.iter_mut() {
            w.advance_clock_to(until_us);
        }
    }

    /// Splits the pinger world into processes owning `halves` (node set,
    /// shard count) and checks the split against a one-shard,
    /// single-process control run.
    fn assert_split_matches_control(halves: &[(&[u32], usize)]) {
        let mut control = pinger_world(None, 1);
        control.run_until(SimTime::from_micros(100_000));

        let lookahead = LatencyModel::lan().min_latency().as_micros();
        let mut worlds: Vec<World> = halves
            .iter()
            .map(|&(owned, shards)| pinger_world(Some(owned), shards))
            .collect();
        run_split_until(&mut worlds, 100_000, lookahead);

        for n in 0..4u32 {
            let node = NodeId(n);
            let owner = worlds
                .iter()
                .find(|w| !w.is_remote(node))
                .expect("owner exists");
            let dump = |w: &World| -> Vec<(String, Vec<u8>)> {
                w.stable(node)
                    .iter()
                    .map(|(k, v)| (k.to_owned(), v.to_vec()))
                    .collect()
            };
            assert_eq!(dump(&control), dump(owner), "stable diverged on {node}");
            assert_eq!(owner.now(), control.now());
        }
        // Counters split across the processes must sum to the control's.
        let c = control.snapshot();
        for key in [
            keys::MSGS_DELIVERED,
            keys::BYTES_SENT,
            keys::STABLE_WRITES,
            keys::STABLE_COMMITS,
            keys::EVENTS,
        ] {
            let split: u64 = worlds.iter().map(|w| w.snapshot().counter(key)).sum();
            assert_eq!(c.counter(key), split, "counter {key} diverged");
        }
    }

    #[test]
    fn remote_split_matches_single_process_run() {
        assert_split_matches_control(&[(&[0, 2], 1), (&[1, 3], 1)]);
        // A sharded process runs its own windows inside each lockstep one.
        assert_split_matches_control(&[(&[0, 1, 2], 2), (&[3], 1)]);
    }

    #[test]
    fn driver_post_to_remote_node_diverts_with_billing() {
        let mut w = pinger_world(Some(&[0, 2]), 1);
        let before = w.snapshot().counter(keys::BYTES_SENT);
        w.post(Address::new(NodeId(1), "ping"), b"ext".to_vec());
        assert_eq!(w.snapshot().counter(keys::BYTES_SENT), before + 3);
        let egress = w.take_remote_egress();
        // Driver injections drain ahead of the shards' egress.
        let ev = egress.first().expect("post diverted");
        assert_eq!(ev.to_node, 1);
        assert_eq!(ev.origin, DRIVER_ORIGIN);
        assert_eq!(ev.payload, b"ext");
        assert_eq!(ev.from_node, NodeId::EXTERNAL.0);
    }

    #[test]
    fn inject_remote_rejects_foreign_destination() {
        let mut w = pinger_world(Some(&[0, 2]), 1);
        let ev = RemoteEvent {
            at_us: 10,
            origin: 0,
            seq: 0,
            from_node: 0,
            from_service: "ping".to_owned(),
            to_node: 1,
            to_service: "ping".to_owned(),
            payload: vec![],
        };
        let before = w.pending_events();
        assert_eq!(
            w.inject_remote(ev.clone()),
            Err(InjectError::NotLocal { node: 1 })
        );
        let unknown = RemoteEvent { to_node: 99, ..ev };
        assert_eq!(
            w.inject_remote(unknown),
            Err(InjectError::NotLocal { node: 99 })
        );
        assert_eq!(w.pending_events(), before, "refused events are not queued");
    }
}
