//! The context handed to service callbacks.
//!
//! A [`Ctx`] gives a service synchronous access to its node's stable storage
//! and deterministic randomness, and buffers outgoing effects (messages,
//! timers) which the kernel applies after the callback returns.

use crate::event::TimerId;
use crate::metrics::{keys, Metrics};
use crate::node::{Address, NodeId};
use crate::rng::SimRng;
use crate::stable::StableStore;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind};

#[derive(Debug)]
pub(crate) enum Command {
    Send {
        from: Address,
        to: Address,
        payload: Vec<u8>,
    },
    SetTimer {
        node: NodeId,
        service: &'static str,
        id: TimerId,
        tag: u64,
        epoch: u64,
        delay: SimDuration,
    },
    CancelTimer(TimerId),
}

/// Execution context of a service callback.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) service: &'static str,
    pub(crate) epoch: u64,
    pub(crate) stable: &'a mut StableStore,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a Metrics,
    pub(crate) trace: &'a mut Trace,
    pub(crate) timer_seq: &'a mut u64,
    pub(crate) commands: &'a mut Vec<Command>,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this service runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This service's own address.
    pub fn self_address(&self) -> Address {
        Address::new(self.node, self.service)
    }

    /// Deterministic random number generator (a per-node stream, so draws
    /// are independent of how nodes are partitioned into shards).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Metrics registry for custom counters.
    pub fn metrics(&self) -> &Metrics {
        self.metrics
    }

    /// Sends `payload` to `to`. Delivery is asynchronous; the message is
    /// dropped (with a metric) if the link or destination node is down.
    pub fn send(&mut self, to: Address, payload: Vec<u8>) {
        let from = self.self_address();
        if self.trace.enabled() {
            self.trace.record(
                self.now,
                TraceKind::MsgSent {
                    from: (from.node.0, from.service.to_owned()),
                    to: (to.node.0, to.service.to_owned()),
                    bytes: payload.len(),
                },
            );
        }
        self.metrics.add(keys::BYTES_SENT, payload.len() as u64);
        self.commands.push(Command::Send { from, to, payload });
    }

    /// Sends a message to another service on the same node.
    pub fn send_local(&mut self, service: &'static str, payload: Vec<u8>) {
        self.send(Address::new(self.node, service), payload);
    }

    /// Schedules `on_timer(tag)` after `delay`. The timer dies if the node
    /// crashes before it fires.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        // Timer ids are scoped to the owning node so they are unique (and
        // stable) regardless of the shard layout.
        let id = TimerId(((self.node.0 as u64) << 40) | *self.timer_seq);
        *self.timer_seq += 1;
        self.commands.push(Command::SetTimer {
            node: self.node,
            service: self.service,
            id,
            tag,
            epoch: self.epoch,
            delay,
        });
        id
    }

    /// Cancels a previously set timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.commands.push(Command::CancelTimer(id));
    }

    /// Writes to this node's stable storage (crash-surviving), recording
    /// write metrics.
    pub fn stable_put(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.metrics.inc(keys::STABLE_WRITES);
        self.metrics.add(keys::STABLE_BYTES, value.len() as u64);
        self.stable.put(key, value);
    }

    /// Reads from stable storage.
    pub fn stable_get(&self, key: &str) -> Option<&[u8]> {
        self.stable.get(key)
    }

    /// Deletes a stable key, returning the previous value.
    pub fn stable_delete(&mut self, key: &str) -> Option<Vec<u8>> {
        self.metrics.inc(keys::STABLE_WRITES);
        self.stable.delete(key)
    }

    /// Direct access to the stable store for scans.
    pub fn stable(&mut self) -> &mut StableStore {
        self.stable
    }

    /// Emits an application-level trace marker.
    pub fn trace(&mut self, label: &'static str, detail: impl Into<String>) {
        if self.trace.enabled() {
            self.trace.record(
                self.now,
                TraceKind::Custom {
                    node: self.node.0,
                    label: label.to_owned(),
                    detail: detail.into(),
                },
            );
        }
    }
}
