//! Pass-through wrappers around each layer's public trait. Every call is
//! forwarded unchanged; the wrapper only opens and closes a span around
//! it, so a traced world runs the identical schedule (the self-tests pin
//! that through the deterministic metrics and money audits).

use std::any::Any;
use std::io;
use std::time::{Duration, Instant};

use mar_net::transport::Accept;
use mar_net::Transport;
use mar_platform::{AgentBehavior, StepCtx, StepDecision};
use mar_simnet::{BackendStats, StableBackend, StableFactory};
use mar_txn::{OpCtx, ResourceManager, RmRegistry, TxnError, TxnId};
use mar_wire::Value;

use crate::trace::{self, Layer};

/// Times `AgentBehavior::step`; resource calls made inside the step are
/// child spans, so the layer's self time is the behaviour's own code.
pub struct TracedBehavior<B>(pub B);

impl<B: AgentBehavior> AgentBehavior for TracedBehavior<B> {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        trace::enter(Layer::Behavior, ctx.agent_id().0);
        let r = self.0.step(method, ctx);
        trace::exit(0, 0, false);
        r
    }
}

/// Times every `ResourceManager` call of one manager.
pub struct TracedRm(pub Box<dyn ResourceManager>);

impl ResourceManager for TracedRm {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        trace::enter(Layer::RmInvoke, 0);
        let r = self.0.invoke(ctx, op, params);
        trace::exit(0, 0, matches!(r, Err(TxnError::WouldBlock { .. })));
        r
    }

    fn commit(&mut self, txn: TxnId) {
        trace::span(Layer::RmCommit, || self.0.commit(txn));
    }

    fn abort(&mut self, txn: TxnId) {
        trace::span(Layer::RmAbort, || self.0.abort(txn));
    }

    fn snapshot(&self) -> Result<Vec<u8>, TxnError> {
        trace::enter(Layer::RmSnapshot, 0);
        let r = self.0.snapshot();
        let bytes = r.as_ref().map_or(0, |b| b.len() as u64);
        trace::exit(bytes, 0, false);
        r
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), TxnError> {
        trace::span(Layer::RmRestore, || self.0.restore(bytes))
    }

    fn audit_money(&self) -> Value {
        self.0.audit_money()
    }
}

/// A registry of `rms`, each wrapped in a [`TracedRm`] when `traced`.
pub fn registry(rms: Vec<Box<dyn ResourceManager>>, traced: bool) -> RmRegistry {
    let mut reg = RmRegistry::new();
    for rm in rms {
        if traced {
            reg.register(Box::new(TracedRm(rm)));
        } else {
            reg.register(rm);
        }
    }
    reg
}

/// Times every `StableBackend` call of one node's backend.
#[derive(Debug)]
pub struct TracedBackend(pub Box<dyn StableBackend>);

/// A scan iterator timed from its creation to its drop (the callers
/// consume scans in tight loops; timing every `next` would cost more than
/// the scan itself).
struct ScanIter<'a> {
    inner: Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a>,
    start: Instant,
    items: u64,
}

impl<'a> ScanIter<'a> {
    fn new(start: Instant, inner: Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a>) -> Self {
        ScanIter {
            inner,
            start,
            items: 0,
        }
    }
}

impl<'a> Iterator for ScanIter<'a> {
    type Item = (&'a str, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let r = self.inner.next();
        self.items += u64::from(r.is_some());
        r
    }
}

impl Drop for ScanIter<'_> {
    fn drop(&mut self) {
        trace::leaf(Layer::StableScan, self.start, 1, self.items);
    }
}

impl StableBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn put(&mut self, key: String, value: Vec<u8>) {
        let bytes = (key.len() + value.len()) as u64;
        trace::enter(Layer::StablePut, 0);
        self.0.put(key, value);
        trace::exit(bytes, 0, false);
    }

    fn get(&self, key: &str) -> Option<&[u8]> {
        trace::span(Layer::StableGet, || self.0.get(key))
    }

    fn delete(&mut self, key: &str) -> Option<Vec<u8>> {
        trace::span(Layer::StableDelete, || self.0.delete(key))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(ScanIter::new(Instant::now(), self.0.iter()))
    }

    fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(ScanIter::new(Instant::now(), self.0.iter_prefix(prefix)))
    }

    fn commit(&mut self) -> bool {
        trace::span(Layer::StableCommit, || self.0.commit())
    }

    fn crash(&mut self) {
        self.0.crash();
    }

    fn recover(&mut self) {
        let before = self.0.stats().replayed_bytes;
        trace::enter(Layer::StableRecover, 0);
        self.0.recover();
        trace::exit(self.0.stats().replayed_bytes - before, 0, false);
    }

    fn stats(&self) -> BackendStats {
        self.0.stats()
    }

    fn clone_backend(&self) -> Box<dyn StableBackend> {
        Box::new(TracedBackend(self.0.clone_backend()))
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// `factory` with every backend it builds wrapped in a [`TracedBackend`].
pub fn traced_stable(factory: StableFactory) -> StableFactory {
    StableFactory::custom_per_node(factory.name(), move |node| {
        Box::new(TracedBackend(factory.make(node)))
    })
}

/// Times `Transport::send` (work) and `Transport::recv` (waiting for the
/// peer) of one connection, on the driver side or (`host`) a host's. On a
/// host, the time from one `recv` returning to the next `recv` starting
/// is the host's work on that frame.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    host: bool,
    received_at: Option<Instant>,
}

impl TracedTransport {
    /// Wraps a driver-side (`host == false`) or host-side connection.
    pub fn new(inner: Box<dyn Transport>, host: bool) -> Self {
        TracedTransport {
            inner,
            host,
            received_at: None,
        }
    }
}

impl Transport for TracedTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        trace::enter(
            if self.host {
                Layer::HostSend
            } else {
                Layer::NetSend
            },
            0,
        );
        let r = self.inner.send(frame);
        trace::exit(frame.len() as u64, 0, false);
        r
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if let Some(t) = self.received_at.take() {
            trace::leaf(Layer::HostWork, t, 1, 0);
        }
        trace::enter(
            if self.host {
                Layer::HostRecv
            } else {
                Layer::NetRecv
            },
            0,
        );
        let r = self.inner.recv();
        let bytes = r.as_ref().ok().and_then(Option::as_ref).map_or(0, Vec::len);
        trace::exit(bytes as u64, 0, false);
        if self.host && bytes > 0 {
            self.received_at = Some(Instant::now());
        }
        r
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(d)
    }
}

/// Hands the driver [`TracedTransport`]-wrapped connections.
pub struct TracedAccept(pub Box<dyn Accept>);

impl Accept for TracedAccept {
    fn poll(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        Ok(self
            .0
            .poll()?
            .map(|inner| Box::new(TracedTransport::new(inner, false)) as Box<dyn Transport>))
    }
}
