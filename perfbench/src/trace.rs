//! Span tracer fed by the pass-through wrappers in [`crate::wrap`].
//!
//! Every wrapper call opens a span on the calling thread's stack. Closing
//! it adds the duration to the layer's total and the duration minus the
//! time covered by child spans to the layer's self time. Each thread owns
//! one accumulator (registered globally so the run can merge them), and
//! the lock it sits behind is only ever contended by the final merge.
//! Full span records are kept for a bounded sample: the first platform
//! calls of each thread, and every behaviour step (with its children) of
//! the first [`SAMPLE_AGENTS`] agents.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer boundaries the wrappers time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Platform::launch` / `NetPlatform::launch`.
    Launch,
    /// `run_for` on either driver.
    RunFor,
    /// `drain_reports` on either driver.
    Drain,
    /// `AgentBehavior::step`.
    Behavior,
    /// `ResourceManager::invoke`.
    RmInvoke,
    /// `ResourceManager::commit`.
    RmCommit,
    /// `ResourceManager::abort`.
    RmAbort,
    /// `ResourceManager::snapshot`.
    RmSnapshot,
    /// `ResourceManager::restore`.
    RmRestore,
    /// `StableBackend::put`.
    StablePut,
    /// `StableBackend::get`.
    StableGet,
    /// `StableBackend::delete`.
    StableDelete,
    /// `StableBackend::iter` / `iter_prefix`, including every `next`.
    StableScan,
    /// `StableBackend::commit`.
    StableCommit,
    /// `StableBackend::recover`.
    StableRecover,
    /// `Transport::send` on the driver side.
    NetSend,
    /// `Transport::recv` on the driver side: waiting, not work.
    NetRecv,
    /// One `HostRuntime::run_conn` on a host thread.
    Host,
    /// `Transport::send` on a host thread.
    HostSend,
    /// `Transport::recv` on a host thread: waiting for the driver.
    HostRecv,
    /// A host thread's work on one received frame: the gap between a
    /// `recv` returning and the next `recv` starting (sends included).
    HostWork,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 21;

/// Agents whose behaviour steps are recorded as full spans.
pub const SAMPLE_AGENTS: u64 = 8;

/// Platform-call spans recorded in full per thread.
const SAMPLE_PLATFORM_SPANS: usize = 2_000;

/// Hard cap on recorded spans per thread.
const SAMPLE_CAP: usize = 20_000;

impl Layer {
    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Launch => "platform.launch",
            Layer::RunFor => "platform.run_for",
            Layer::Drain => "platform.drain_reports",
            Layer::Behavior => "behavior.step",
            Layer::RmInvoke => "resources.invoke",
            Layer::RmCommit => "resources.commit",
            Layer::RmAbort => "resources.abort",
            Layer::RmSnapshot => "resources.snapshot",
            Layer::RmRestore => "resources.restore",
            Layer::StablePut => "stable.put",
            Layer::StableGet => "stable.get",
            Layer::StableDelete => "stable.delete",
            Layer::StableScan => "stable.scan",
            Layer::StableCommit => "stable.commit",
            Layer::StableRecover => "stable.recover",
            Layer::NetSend => "net.send",
            Layer::NetRecv => "net.recv",
            Layer::Host => "net.host",
            Layer::HostSend => "net.host_send",
            Layer::HostRecv => "net.host_recv",
            Layer::HostWork => "net.host_work",
        }
    }

    /// Driver API calls: the roots of the driver thread's span tree.
    pub fn is_platform(self) -> bool {
        matches!(self, Layer::Launch | Layer::RunFor | Layer::Drain)
    }
}

/// Per-layer sums.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerAcc {
    /// Closed spans (scan items do not count here).
    pub count: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ span durations minus child-covered time.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Payload bytes reported by the wrapper.
    pub bytes: u64,
    /// Items reported by the wrapper (scan items).
    pub items: u64,
    /// Flagged outcomes (would-block invokes).
    pub flagged: u64,
}

impl LayerAcc {
    /// Adds `o` into `self`.
    pub fn merge(&mut self, o: &LayerAcc) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        self.max_ns = self.max_ns.max(o.max_ns);
        self.bytes += o.bytes;
        self.items += o.items;
        self.flagged += o.flagged;
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer of the span.
    pub layer: Layer,
    /// Thread index (registration order).
    pub thread: usize,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// Index (within the same thread's records) of the enclosing span.
    pub parent: Option<usize>,
    /// Agent id for behaviour spans (0 otherwise).
    pub agent: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    rec: Option<usize>,
    sampled: bool,
}

struct ThreadAcc {
    thread: usize,
    layers: [LayerAcc; LAYERS],
    stack: Vec<Frame>,
    spans: Vec<SpanRec>,
    platform_spans: usize,
}

type Shared = Arc<Mutex<ThreadAcc>>;

fn registry() -> &'static Mutex<Vec<Shared>> {
    static REG: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: RefCell<Option<Shared>> = const { RefCell::new(None) };
}

fn with_acc<R>(f: impl FnOnce(&mut ThreadAcc) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let shared = slot.get_or_insert_with(|| {
            let mut reg = registry().lock().expect("tracer registry poisoned");
            let acc = Arc::new(Mutex::new(ThreadAcc {
                thread: reg.len(),
                layers: [LayerAcc::default(); LAYERS],
                stack: Vec::new(),
                spans: Vec::new(),
                platform_spans: 0,
            }));
            reg.push(acc.clone());
            acc
        });
        let mut acc = shared.lock().expect("thread accumulator poisoned");
        f(&mut acc)
    })
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Opens a span. `agent` tags behaviour spans for sampling (0 = none).
pub fn enter(layer: Layer, agent: u64) {
    let start = Instant::now();
    with_acc(|acc| {
        let parent = acc.stack.last();
        let sampled = match layer {
            Layer::Behavior => (1..=SAMPLE_AGENTS).contains(&agent),
            l if l.is_platform() => acc.platform_spans < SAMPLE_PLATFORM_SPANS,
            _ => parent.is_some_and(|p| p.sampled),
        };
        let parent_rec = parent.and_then(|p| p.rec);
        let rec = (sampled && acc.spans.len() < SAMPLE_CAP).then(|| {
            if layer.is_platform() {
                acc.platform_spans += 1;
            }
            acc.spans.push(SpanRec {
                layer,
                thread: acc.thread,
                start_ns: ns(start.duration_since(epoch())),
                dur_ns: 0,
                parent: parent_rec,
                agent,
            });
            acc.spans.len() - 1
        });
        acc.stack.push(Frame {
            layer,
            start,
            child_ns: 0,
            rec,
            sampled,
        });
    });
}

/// Closes the innermost span, attaching payload `bytes`, `items` and a
/// `flagged` outcome to its layer.
pub fn exit(bytes: u64, items: u64, flagged: bool) {
    let end = Instant::now();
    with_acc(|acc| {
        let frame = acc.stack.pop().expect("span exit without enter");
        let dur = ns(end.duration_since(frame.start));
        if let Some(parent) = acc.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = frame.rec {
            acc.spans[i].dur_ns = dur;
        }
        let l = &mut acc.layers[frame.layer as usize];
        l.count += 1;
        l.total_ns += dur;
        l.self_ns += dur.saturating_sub(frame.child_ns);
        l.max_ns = l.max_ns.max(dur);
        l.bytes += bytes;
        l.items += items;
        l.flagged += u64::from(flagged);
    });
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer, 0);
    let r = f();
    exit(0, 0, false);
    r
}

/// Runs `f` inside a span only when `on`; otherwise calls straight through.
pub fn maybe<R>(on: bool, layer: Layer, f: impl FnOnce() -> R) -> R {
    if on {
        span(layer, f)
    } else {
        f()
    }
}

/// Adds a leaf interval that is not a span of its own (a scan iterator's
/// life, a host's work between two receives): time, `calls` and `items`
/// go to `layer`, the time also counts as child time of the enclosing
/// span.
pub fn leaf(layer: Layer, start: Instant, calls: u64, items: u64) {
    let dur = ns(start.elapsed());
    with_acc(|acc| {
        if let Some(parent) = acc.stack.last_mut() {
            parent.child_ns += dur;
        }
        let l = &mut acc.layers[layer as usize];
        l.count += calls;
        l.total_ns += dur;
        l.self_ns += dur;
        l.items += items;
    });
}

/// Per-layer sums merged over every thread seen so far.
pub fn totals() -> [LayerAcc; LAYERS] {
    let mut out = [LayerAcc::default(); LAYERS];
    for shared in registry().lock().expect("tracer registry poisoned").iter() {
        let acc = shared.lock().expect("thread accumulator poisoned");
        for (o, l) in out.iter_mut().zip(acc.layers.iter()) {
            o.merge(l);
        }
    }
    out
}

/// Element-wise `a - b` of two [`totals`] readings (max stays `a`'s).
pub fn delta(a: &[LayerAcc; LAYERS], b: &[LayerAcc; LAYERS]) -> [LayerAcc; LAYERS] {
    let mut out = *a;
    for (o, l) in out.iter_mut().zip(b.iter()) {
        o.count -= l.count;
        o.total_ns -= l.total_ns;
        o.self_ns -= l.self_ns;
        o.bytes -= l.bytes;
        o.items -= l.items;
        o.flagged -= l.flagged;
    }
    out
}

/// Clears every accumulator and span record (threads stay registered).
pub fn reset() {
    for shared in registry().lock().expect("tracer registry poisoned").iter() {
        let mut acc = shared.lock().expect("thread accumulator poisoned");
        acc.layers = [LayerAcc::default(); LAYERS];
        acc.spans.clear();
        acc.platform_spans = 0;
    }
}

/// The recorded span sample of every thread.
pub fn spans() -> Vec<SpanRec> {
    let mut out = Vec::new();
    for shared in registry().lock().expect("tracer registry poisoned").iter() {
        out.extend(
            shared
                .lock()
                .expect("thread accumulator poisoned")
                .spans
                .iter()
                .cloned(),
        );
    }
    out
}

/// Writes the span sample as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). Parents are implied by nesting on a thread track; the
/// explicit parent index rides along in `args`.
pub fn write_chrome(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"agent\":{},\"parent\":{}}}}}",
            sp.layer.name(),
            sp.thread,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns as f64 / 1e3,
            sp.agent,
            parent
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}
