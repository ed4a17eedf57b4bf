//! Runs a workload's phases and turns them into the printed metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use mar_simnet::{BackendStats, MetricsSnapshot};

use crate::drive::LoopOut;
use crate::inproc::{self, Kind};
use crate::sys::{median, percentile};
use crate::trace::{self, Layer, LayerAcc, LAYERS};
use crate::travel;
use crate::{Size, OUT_DIR};

/// A finished run, ready to print.
pub struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// The `{"det": ...}` line: figures that repeat exactly per seed.
    pub det_json: String,
    /// Human-readable remarks for standard error.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result object (the last line of standard output).
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            );
        }
        s.push_str("}}");
        s
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A stretch of timed load (an epoch, or a group of travel rounds). The
/// wall-clock metrics are medians over segments, so a burst of
/// interference from outside the process moves one segment, not the run.
#[derive(Default)]
struct Segment {
    steps: u64,
    timed_s: f64,
    wall_lat: Vec<f64>,
    peak_rss_mb: f64,
}

/// One phase of any workload, reduced to what the metrics need.
#[derive(Default)]
struct Summary {
    segments: Vec<Segment>,
    steps_timed: u64,
    timed_s: f64,
    cpu_s: f64,
    platform_s: f64,
    sim_lat: Vec<f64>,
    /// Counter deltas over the deterministic window.
    det: BTreeMap<String, u64>,
    det_launched: u64,
    det_unsettled: u64,
    setup_s: Vec<f64>,
    launched: u64,
    failed: Vec<(u64, String)>,
    lost: Vec<u64>,
    layers: [LayerAcc; LAYERS],
    problems: Vec<String>,
    audit: BTreeMap<String, i64>,
    backend: BackendStats,
    wal_bytes: Vec<f64>,
    /// Digest of round 0's simulated-system counters (travel workloads).
    round0_kernel: Option<u64>,
    crashes: u32,
}

fn counter_delta(a: &MetricsSnapshot, b: &MetricsSnapshot) -> BTreeMap<String, u64> {
    b.counters
        .iter()
        .map(|(k, v)| (k.clone(), v.saturating_sub(a.counter(k))))
        .collect()
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Summary {
    /// Folds one loop's results in; `det` marks loops inside the
    /// deterministic window, `new_segment` starts a new segment.
    fn absorb(&mut self, o: &LoopOut, det: bool, new_segment: bool) {
        let steps = o.steps_timed;
        if new_segment || self.segments.is_empty() {
            self.segments.push(Segment::default());
        }
        let seg = self.segments.last_mut().expect("a segment");
        seg.steps += steps;
        seg.timed_s += o.timed_s;
        seg.wall_lat.extend(&o.wall_lat_ms);
        seg.peak_rss_mb = seg.peak_rss_mb.max(o.peak_rss_mb);
        self.steps_timed += steps;
        self.timed_s += o.timed_s;
        self.cpu_s += o.cpu_s;
        self.platform_s += o.platform_ns as f64 / 1e9;
        self.launched += o.launched;
        self.failed.extend(o.failed.iter().cloned());
        self.lost.extend(&o.lost);
        if let Some(l) = &o.layers {
            for (a, b) in self.layers.iter_mut().zip(l.iter()) {
                a.merge(b);
            }
        }
        if det {
            self.sim_lat.extend(&o.sim_lat_ms);
            for (k, v) in counter_delta(&o.timed_snaps.0, &o.timed_snaps.1) {
                *self.det.entry(k).or_insert(0) += v;
            }
            self.det_launched += o.launched;
            self.det_unsettled += (o.failed.len() + o.lost.len()) as u64;
        }
    }

    fn det_counter(&self, key: &str) -> f64 {
        self.det.get(key).copied().unwrap_or(0) as f64
    }

    fn per_step(&self, key: &str) -> f64 {
        self.det_counter(key) / self.det_counter("steps.committed").max(1.0)
    }

    fn steps_per_s(&self) -> f64 {
        self.steps_timed as f64 / self.timed_s
    }

    /// Median over segments of `f`.
    fn seg_median(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        median(&self.segments.iter().map(f).collect::<Vec<_>>())
    }

    fn settled_share(&self) -> f64 {
        1.0 - self.det_unsettled as f64 / self.det_launched.max(1) as f64
    }

    /// The figures that must repeat exactly for one seed.
    fn det_json(&self) -> String {
        let mut s = format!(
            "{{\"det\": {{\"agents\": {}, \"sim_agent_ms_p50\": {}, \"sim_agent_ms_p99\": {}, \
             \"wire_bytes_per_step\": {}, \"stable_bytes_per_step\": {}, \"settled_share\": {}, \
             \"counters_fnv\": \"{:016x}\", \"audit\": {{",
            self.det_launched,
            num(percentile(&self.sim_lat, 50.0)),
            num(percentile(&self.sim_lat, 99.0)),
            num(self.per_step("net.bytes_sent")),
            num(self.per_step("stable.bytes_written")),
            num(self.settled_share()),
            fnv(&format!("{:?}", self.det)),
        );
        for (i, (c, v)) in self.audit.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{c}\": {v}");
        }
        s.push('}');
        if let Some(d) = self.round0_kernel {
            let _ = write!(s, ", \"round0_kernel_fnv\": \"{d:016x}\"");
        }
        s.push_str("}}");
        s
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            (
                "steps_per_s",
                "steps/s",
                self.seg_median(|g| g.steps as f64 / g.timed_s),
            ),
            (
                "agent_ms_p50",
                "ms",
                self.seg_median(|g| percentile(&g.wall_lat, 50.0)),
            ),
            (
                "agent_ms_p90",
                "ms",
                self.seg_median(|g| percentile(&g.wall_lat, 90.0)),
            ),
            ("sim_agent_ms_p50", "ms", percentile(&self.sim_lat, 50.0)),
            ("sim_agent_ms_p99", "ms", percentile(&self.sim_lat, 99.0)),
            ("wire_bytes_per_step", "B", self.per_step("net.bytes_sent")),
            (
                "stable_bytes_per_step",
                "B",
                self.per_step("stable.bytes_written"),
            ),
            ("settled_share", "ratio", self.settled_share()),
            ("setup_s", "s", median(&self.setup_s)),
            // The watermark restarts with every segment, and memory the
            // allocator kept from earlier segments only adds to a peak, so
            // the smallest segment peak is the workload's own.
            (
                "peak_rss_mb",
                "MB",
                self.segments
                    .iter()
                    .map(|g| g.peak_rss_mb)
                    .fold(f64::INFINITY, f64::min),
            ),
            // Pooled: CPU time is read in 10 ms clock ticks, too coarse
            // for one short segment.
            (
                "cpu_ms_per_kstep",
                "ms",
                self.cpu_s * 1e6 / self.steps_timed as f64,
            ),
        ]
    }
}

fn inproc_summary(kind: Kind, seed: u64, size: Size, budget: Duration, traced: bool) -> Summary {
    let ph = inproc::run(kind, seed, size, budget, traced);
    let det = inproc::det_epochs(kind, size);
    let mut s = Summary::default();
    for (i, e) in ph.epochs.iter().enumerate() {
        s.absorb(&e.out, i < det, true);
        if i < det {
            for (c, v) in &e.audit {
                *s.audit.entry(c.clone()).or_insert(0) += v;
            }
        }
        s.setup_s.push(e.setup_s);
        s.backend.checkpoints += e.backend.checkpoints;
        s.backend.checkpoint_bytes += e.backend.checkpoint_bytes;
        s.backend.replayed_bytes += e.backend.replayed_bytes;
        s.crashes += e.crashes;
    }
    s.problems = ph.problems;
    s
}

fn travel_summary(
    seed: u64,
    wal: bool,
    size: Size,
    budget: Duration,
    traced: bool,
) -> Result<Summary, String> {
    let ph = travel::run(seed, wal, size, budget, traced).map_err(|e| format!("travel: {e}"))?;
    let det = travel::det_rounds(size, wal);
    let mut s = Summary::default();
    let per_segment = travel::rounds_per_segment(wal);
    for (r, rd) in ph.rounds.iter().enumerate() {
        s.absorb(&rd.out, r < det, r % per_segment == 0);
        if r < det {
            for (c, v) in &rd.audit {
                *s.audit.entry(c.clone()).or_insert(0) += v;
            }
        }
        s.wal_bytes.push(rd.wal_bytes as f64);
    }
    s.round0_kernel = ph.rounds.first().map(|rd| {
        fnv(&format!(
            "{:?}",
            travel::kernel_counters(&rd.out.timed_snaps.1)
        ))
    });
    s.setup_s = ph.setup_s;
    s.problems = ph.problems;
    Ok(s)
}

fn phase(
    workload: &str,
    seed: u64,
    size: Size,
    budget: Duration,
    traced: bool,
) -> Result<Summary, String> {
    match workload {
        "fleet_forward" => Ok(inproc_summary(
            Kind::FleetForward,
            seed,
            size,
            budget,
            traced,
        )),
        "rollback_crash" => Ok(inproc_summary(
            Kind::RollbackCrash,
            seed,
            size,
            budget,
            traced,
        )),
        "rollback_nocrash" => Ok(inproc_summary(
            Kind::RollbackNoCrash,
            seed,
            size,
            budget,
            traced,
        )),
        "travel_uds" => travel_summary(seed, false, size, budget, traced),
        "travel_uds_wal" => travel_summary(seed, true, size, budget, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

fn mean_us(a: &LayerAcc) -> f64 {
    if a.count == 0 {
        0.0
    } else {
        a.total_ns as f64 / a.count as f64 / 1e3
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layers whose self time is work done inside a driver call (waiting
/// layers and the host threads' own accounting excluded).
const INNER_BUSY: [Layer; 13] = [
    Layer::Behavior,
    Layer::RmInvoke,
    Layer::RmCommit,
    Layer::RmAbort,
    Layer::RmSnapshot,
    Layer::RmRestore,
    Layer::StablePut,
    Layer::StableGet,
    Layer::StableDelete,
    Layer::StableScan,
    Layer::StableCommit,
    Layer::StableRecover,
    Layer::NetSend,
];

/// Busy seconds of a phase and the part of them the driver thread spent
/// outside driver calls. Busy time is process CPU time when the world runs
/// on worker threads (their work is not on the driver thread's clock),
/// else the driver thread's wall time.
fn busy_split(s: &Summary, multi_thread: bool) -> (f64, f64) {
    let busy_s = if multi_thread { s.cpu_s } else { s.timed_s };
    (busy_s, (s.timed_s - s.platform_s).max(0.0))
}

/// The per-layer metrics of a traced phase. `stable` holds the layers and
/// backend figures the `stable.*` group reads (the traced phase itself,
/// or the in-process probe on travel workloads).
fn per_layer(
    s: &Summary,
    multi_thread: bool,
    stable: (&[LayerAcc; LAYERS], &BackendStats),
    untraced_sps: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let l = |x: Layer| &s.layers[x as usize];
    let st = |x: Layer| &stable.0[x as usize];
    let c = |k: &str| s.det_counter(k);
    let platform_ns: u64 = [Layer::Launch, Layer::RunFor, Layer::Drain]
        .iter()
        .map(|x| l(*x).self_ns)
        .sum();
    let inner_ns: u64 = INNER_BUSY.iter().map(|x| l(*x).self_ns).sum();
    let (busy_s, outside_s) = busy_split(s, multi_thread);
    let coverage = 1.0 - outside_s / busy_s;
    let other_s = if multi_thread {
        busy_s - outside_s - inner_ns as f64 / 1e9
    } else {
        platform_ns as f64 / 1e9
    };
    let aborts = l(Layer::RmAbort).count as f64;
    let commits = l(Layer::RmCommit).count as f64;
    let res_hits = c("resident.hits");
    let itin_hits = c("itinerary.cache_hits");
    let windows = c("net.windows");
    vec![
        ("platform.launch_us", "us", mean_us(l(Layer::Launch))),
        ("platform.drain_us", "us", mean_us(l(Layer::Drain))),
        (
            "platform.run_for_s",
            "s",
            l(Layer::RunFor).total_ns as f64 / 1e9,
        ),
        ("platform.other_s", "s", other_s),
        ("platform.other_share", "ratio", ratio(other_s, busy_s)),
        (
            "behavior.step_us",
            "us",
            ratio(
                l(Layer::Behavior).self_ns as f64 / 1e3,
                l(Layer::Behavior).count as f64,
            ),
        ),
        ("behavior.steps", "count", l(Layer::Behavior).count as f64),
        ("resources.invoke_us", "us", mean_us(l(Layer::RmInvoke))),
        (
            "resources.invokes",
            "count",
            l(Layer::RmInvoke).count as f64,
        ),
        (
            "resources.would_block",
            "count",
            l(Layer::RmInvoke).flagged as f64,
        ),
        ("resources.commit_us", "us", mean_us(l(Layer::RmCommit))),
        ("resources.commits", "count", commits),
        ("resources.aborts", "count", aborts),
        (
            "resources.abort_share",
            "ratio",
            ratio(aborts, commits + aborts),
        ),
        ("resources.snapshot_us", "us", mean_us(l(Layer::RmSnapshot))),
        (
            "resources.snapshots",
            "count",
            l(Layer::RmSnapshot).count as f64,
        ),
        (
            "resources.snapshot_bytes",
            "B",
            ratio(
                l(Layer::RmSnapshot).bytes as f64,
                l(Layer::RmSnapshot).count as f64,
            ),
        ),
        ("stable.put_us", "us", mean_us(st(Layer::StablePut))),
        ("stable.puts", "count", st(Layer::StablePut).count as f64),
        (
            "stable.put_bytes",
            "B",
            ratio(
                st(Layer::StablePut).bytes as f64,
                st(Layer::StablePut).count as f64,
            ),
        ),
        ("stable.get_us", "us", mean_us(st(Layer::StableGet))),
        ("stable.gets", "count", st(Layer::StableGet).count as f64),
        ("stable.scan_us", "us", mean_us(st(Layer::StableScan))),
        (
            "stable.scan_items",
            "count",
            st(Layer::StableScan).items as f64,
        ),
        ("stable.commit_us", "us", mean_us(st(Layer::StableCommit))),
        (
            "stable.commit_us_max",
            "us",
            st(Layer::StableCommit).max_ns as f64 / 1e3,
        ),
        (
            "stable.commits",
            "count",
            st(Layer::StableCommit).count as f64,
        ),
        ("stable.recover_us", "us", mean_us(st(Layer::StableRecover))),
        (
            "stable.recovers",
            "count",
            st(Layer::StableRecover).count as f64,
        ),
        ("stable.replayed_bytes", "B", stable.1.replayed_bytes as f64),
        ("stable.checkpoints", "count", stable.1.checkpoints as f64),
        (
            "stable.checkpoint_bytes",
            "B",
            stable.1.checkpoint_bytes as f64,
        ),
        ("simnet.events", "count", c("kernel.events")),
        ("simnet.timers_fired", "count", c("kernel.timers_fired")),
        ("simnet.msgs_delivered", "count", c("net.msgs_delivered")),
        ("txn.committed", "count", c("txn.committed")),
        ("txn.aborted", "count", c("txn.aborted")),
        (
            "txn.step_abort_share",
            "ratio",
            ratio(
                c("steps.aborted_transient"),
                c("steps.committed") + c("steps.aborted_transient"),
            ),
        ),
        ("core.rollback_rounds", "count", c("rollback.rounds")),
        ("core.batched_rounds", "count", c("rollback.batched_rounds")),
        ("core.rounds_saved", "count", c("rollback.rounds_saved")),
        ("core.rce_shipped", "count", c("rollback.rce_shipped")),
        ("core.rce_bytes", "B", c("rollback.rce_bytes")),
        (
            "core.rollback_transfer_bytes",
            "B",
            c("agent.transfer_bytes.rollback"),
        ),
        (
            "core.resident_hit_rate",
            "ratio",
            ratio(res_hits, res_hits + c("resident.misses")),
        ),
        ("core.log_discard_bytes", "B", c("log.discard_bytes")),
        (
            "itinerary.hit_rate",
            "ratio",
            ratio(itin_hits, itin_hits + c("itinerary.cache_misses")),
        ),
        ("itinerary.refetches", "count", c("itinerary.refetches")),
        (
            "itinerary.ref_transfers",
            "count",
            c("itinerary.ref_transfers"),
        ),
        (
            "itinerary.migration_bytes",
            "B",
            c("itinerary.migration_bytes"),
        ),
        ("net.send_us", "us", mean_us(l(Layer::NetSend))),
        ("net.sends", "count", l(Layer::NetSend).count as f64),
        ("net.send_bytes", "B", l(Layer::NetSend).bytes as f64),
        ("net.recv_wait_us", "us", mean_us(l(Layer::NetRecv))),
        ("net.host_busy_us", "us", mean_us(l(Layer::HostWork))),
        ("net.host_recv_wait_us", "us", mean_us(l(Layer::HostRecv))),
        ("net.windows", "count", windows),
        ("net.events_relayed", "count", c("net.events_relayed")),
        (
            "net.windows_per_relay",
            "ratio",
            ratio(windows, c("net.events_relayed")),
        ),
        ("net.frames_sent", "count", c("net.frames_sent")),
        ("net.retransmits", "count", c("report.retransmits")),
        ("net.wal_dir_bytes", "B", median(&s.wal_bytes)),
        ("trace.busy_s", "s", busy_s),
        ("trace.coverage", "ratio", coverage),
        ("trace.steps_per_s", "steps/s", s.steps_per_s()),
        (
            "trace.overhead_x",
            "ratio",
            ratio(untraced_sps, s.steps_per_s()),
        ),
    ]
}

fn notes_of(s: &Summary, workload: &str) -> Vec<String> {
    let mut notes = vec![format!(
        "{workload}: {} agents launched, {} in the deterministic window; \
         latency samples: {} wall in {} segments, {} virtual",
        s.launched,
        s.det_launched,
        s.segments.iter().map(|g| g.wall_lat.len()).sum::<usize>(),
        s.segments.len(),
        s.sim_lat.len()
    )];
    let seg: Vec<String> = s
        .segments
        .iter()
        .map(|g| format!("{:.0}/{:.1}MB", g.steps as f64 / g.timed_s, g.peak_rss_mb))
        .collect();
    notes.push(format!(
        "{workload}: steps/s per segment: {}",
        seg.join(" ")
    ));
    if s.crashes > 0 {
        notes.push(format!(
            "{workload}: failure plan scheduled {} crashes",
            s.crashes
        ));
    }
    for (id, why) in &s.failed {
        notes.push(format!("agent {id} failed: {why}"));
    }
    if !s.lost.is_empty() {
        notes.push(format!(
            "lost agents (no report by the deadline): {:?}",
            s.lost
        ));
    }
    notes.extend(s.problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    notes
}

/// Runs `workload` and assembles its result.
///
/// # Errors
///
/// Unknown workloads and infrastructure failures (sockets, threads).
pub fn run(
    workload: &str,
    seed: u64,
    budget: Duration,
    traced: bool,
    size: Size,
) -> Result<RunResult, String> {
    let plain = phase(workload, seed, size, budget, false)?;
    if !traced {
        let failed = (plain.failed.len() + plain.lost.len()) as u64;
        return Ok(RunResult {
            correct: plain.problems.is_empty(),
            attempted: plain.launched,
            failed,
            metrics: plain.end_to_end(),
            det_json: plain.det_json(),
            notes: notes_of(&plain, workload),
        });
    }
    trace::reset();
    let mut t = phase(workload, seed, size, budget, true)?;
    if t.det_json() != plain.det_json() {
        t.problems.push(format!(
            "tracing changed deterministic results: {} vs {}",
            t.det_json(),
            plain.det_json()
        ));
    }
    let spans = trace::spans();
    let travel = workload.starts_with("travel");
    let (probe_layers, probe_backend) = if travel {
        let before = trace::totals();
        let rounds = travel::det_rounds(size, workload.ends_with("wal"));
        let backend = travel::stable_probe(seed, workload.ends_with("wal"), rounds);
        (trace::delta(&trace::totals(), &before), backend)
    } else {
        (t.layers, t.backend)
    };
    let path = std::path::PathBuf::from(format!("{OUT_DIR}/trace-{workload}-{seed}.json"));
    if let Err(e) = trace::write_chrome(&path, &spans) {
        t.problems.push(format!("writing {}: {e}", path.display()));
    }
    let multi_thread = workload == "fleet_forward";
    let metrics = per_layer(
        &t,
        multi_thread,
        (&probe_layers, &probe_backend),
        plain.steps_per_s(),
    );
    let (busy_s, outside_s) = busy_split(&t, multi_thread);
    let coverage = 1.0 - outside_s / busy_s;
    if coverage < 0.9 {
        t.problems.push(format!(
            "layers cover {:.1}% of busy time, below the 90% floor",
            coverage * 100.0
        ));
    }
    let mut notes = notes_of(&t, workload);
    notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(RunResult {
        correct: t.problems.is_empty(),
        attempted: t.launched,
        failed: (t.failed.len() + t.lost.len()) as u64,
        metrics,
        det_json: t.det_json(),
        notes,
    })
}
