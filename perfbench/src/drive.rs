//! The load loop shared by every workload: launch agents, advance virtual
//! time in fixed ticks, drain reports, check each one, and (closed loop)
//! launch a replacement per drained or lost agent.
//!
//! Everything the loop decides depends on virtual time only, so one seed
//! always produces the same schedule and the same figures in virtual time;
//! the wall clock only measures it. A closed loop loads for a fixed number
//! of ticks, then stops launching and settles the agents still in flight
//! (untimed).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mar_core::AgentId;
use mar_net::NetPlatform;
use mar_platform::{audit_wallets, AgentHandle, AgentReport, AgentSpec, Platform, ReportOutcome};
use mar_simnet::{MetricsSnapshot, SimDuration};

use crate::sys;
use crate::trace::{self, Layer};

/// Virtual time per loop tick: the platforms' own settle tick, so the
/// drain cadence (and the `driver.*` counters) match `run_until_settled`.
pub const TICK: SimDuration = SimDuration::from_millis(50);

/// The driver API the load loop calls, for both deployment shapes.
pub trait Driver {
    /// Launches one agent.
    fn launch(&mut self, spec: AgentSpec) -> AgentHandle;
    /// Advances virtual time.
    fn run_for(&mut self, d: SimDuration);
    /// Newly arrived reports.
    fn drain_reports(&mut self) -> Vec<AgentReport>;
    /// Current virtual time in µs.
    fn now_us(&self) -> u64;
    /// Merged metric counters.
    fn snapshot(&mut self) -> MetricsSnapshot;
    /// Releases a drained report from the driver's cache.
    fn forget(&mut self, id: AgentId);
}

impl Driver for Platform {
    fn launch(&mut self, spec: AgentSpec) -> AgentHandle {
        Platform::launch(self, spec)
    }
    fn run_for(&mut self, d: SimDuration) {
        Platform::run_for(self, d);
    }
    fn drain_reports(&mut self) -> Vec<AgentReport> {
        Platform::drain_reports(self)
    }
    fn now_us(&self) -> u64 {
        self.world().now().as_micros()
    }
    fn snapshot(&mut self) -> MetricsSnapshot {
        Platform::snapshot(self)
    }
    fn forget(&mut self, id: AgentId) {
        Platform::forget(self, id);
    }
}

impl Driver for NetPlatform {
    fn launch(&mut self, spec: AgentSpec) -> AgentHandle {
        NetPlatform::launch(self, spec)
    }
    fn run_for(&mut self, d: SimDuration) {
        NetPlatform::run_for(self, d);
    }
    fn drain_reports(&mut self) -> Vec<AgentReport> {
        NetPlatform::drain_reports(self)
    }
    fn now_us(&self) -> u64 {
        self.now().as_micros()
    }
    fn snapshot(&mut self) -> MetricsSnapshot {
        NetPlatform::snapshot(self)
    }
    fn forget(&mut self, _id: AgentId) {}
}

/// One agent the workload wants launched, with what its report must show.
pub struct Planned {
    /// The launch spec.
    pub spec: AgentSpec,
    /// Steps a completed agent must have committed, when fixed.
    pub expect_steps: Option<u64>,
    /// Money the agent carries in at launch, per currency.
    pub wallet: BTreeMap<String, i64>,
}

/// Loop shape.
pub struct LoopCfg {
    /// Agents in flight.
    pub in_flight: usize,
    /// Closed loop (a replacement per finished agent) or one batch.
    pub replace: bool,
    /// Ticks of closed-loop load.
    pub load_ticks: u64,
    /// Per-agent virtual deadline: an agent without a report by then is
    /// counted lost and the loop moves on.
    pub deadline: SimDuration,
    /// Wrap the driver calls in spans.
    pub traced: bool,
}

/// What one loop produced.
#[derive(Default)]
pub struct LoopOut {
    /// Agents launched.
    pub launched: u64,
    /// Virtual launch-to-finish latency (ms) of the completed agents.
    pub sim_lat_ms: Vec<f64>,
    /// Wall launch-to-drain latency (ms) of agents drained during the
    /// timed load.
    pub wall_lat_ms: Vec<f64>,
    /// Steps committed during the timed load.
    pub steps_timed: u64,
    /// Wall seconds of the timed load.
    pub timed_s: f64,
    /// Process CPU seconds over the timed load.
    pub cpu_s: f64,
    /// Peak resident set size over the timed load, MB.
    pub peak_rss_mb: f64,
    /// Wall ns of the timed load the driver thread spent inside driver
    /// calls (the rest is the loop's own book-keeping).
    pub platform_ns: u64,
    /// Counters at the start and end of the timed load.
    pub timed_snaps: (MetricsSnapshot, MetricsSnapshot),
    /// Tracer totals over the timed load (traced runs).
    pub layers: Option<[trace::LayerAcc; trace::LAYERS]>,
    /// Agents that ended `Failed`, with the reason.
    pub failed: Vec<(u64, String)>,
    /// Agents with no report by their deadline.
    pub lost: Vec<u64>,
    /// Report checks that failed.
    pub problems: Vec<String>,
    /// Wallet money of drained (and forgotten) reports.
    pub retired: BTreeMap<String, i64>,
    /// Wallet money carried in by every launch.
    pub carried_in: BTreeMap<String, i64>,
    /// Wallet money carried in by the lost agents.
    pub lost_money: BTreeMap<String, i64>,
    /// Drained reports in launch order (batches only).
    pub reports: Vec<AgentReport>,
}

struct InFlight {
    launched_wall: Instant,
    launched_us: u64,
    expect_steps: Option<u64>,
    wallet: BTreeMap<String, i64>,
}

fn steps(snaps: &(MetricsSnapshot, MetricsSnapshot)) -> u64 {
    snaps.1.counter("steps.committed") - snaps.0.counter("steps.committed")
}

/// Adds `sign` × `from` into `into`, per currency, dropping zero entries.
pub fn add_money(into: &mut BTreeMap<String, i64>, from: &BTreeMap<String, i64>, sign: i64) {
    for (c, v) in from {
        *into.entry(c.clone()).or_insert(0) += sign * v;
    }
    into.retain(|_, v| *v != 0);
}

/// The agents in flight, keyed by id and by virtual deadline.
#[derive(Default)]
struct Flying {
    agents: BTreeMap<AgentId, InFlight>,
    deadlines: BTreeSet<(u64, AgentId)>,
}

impl Flying {
    fn launch<D: Driver>(&mut self, d: &mut D, cfg: &LoopCfg, out: &mut LoopOut, p: Planned) {
        out.launched += 1;
        add_money(&mut out.carried_in, &p.wallet, 1);
        let t = Instant::now();
        let launched_us = d.now_us();
        let h = trace::maybe(cfg.traced, Layer::Launch, || d.launch(p.spec));
        out.platform_ns += t.elapsed().as_nanos() as u64;
        self.deadlines
            .insert((launched_us + cfg.deadline.as_micros(), h.id()));
        self.agents.insert(
            h.id(),
            InFlight {
                launched_wall: t,
                launched_us,
                expect_steps: p.expect_steps,
                wallet: p.wallet,
            },
        );
    }

    fn remove(&mut self, id: AgentId, cfg: &LoopCfg) -> Option<InFlight> {
        let f = self.agents.remove(&id)?;
        self.deadlines
            .remove(&(f.launched_us + cfg.deadline.as_micros(), id));
        Some(f)
    }
}

/// Checks one drained report and books its figures.
fn settle_report(out: &mut LoopOut, f: &InFlight, r: &AgentReport, timed: bool) {
    if timed {
        out.wall_lat_ms
            .push(f.launched_wall.elapsed().as_secs_f64() * 1e3);
    }
    match &r.outcome {
        ReportOutcome::Completed => {
            if let Some(n) = f.expect_steps {
                if r.steps_committed != n {
                    out.problems.push(format!(
                        "agent {} committed {} steps, itinerary has {n}",
                        r.id.0, r.steps_committed
                    ));
                }
            }
            out.sim_lat_ms
                .push(r.finished_at_us.saturating_sub(f.launched_us) as f64 / 1e3);
        }
        ReportOutcome::Failed(why) => out.failed.push((r.id.0, why.clone())),
    }
    audit_wallets(&r.record.data, &["wallet"], &mut out.retired);
}

/// Runs the loop to completion: the timed load, then (closed loop) the
/// untimed tail that settles every agent still in flight.
pub fn run<D: Driver>(d: &mut D, cfg: &LoopCfg, mut plan: impl FnMut(u64) -> Planned) -> LoopOut {
    let mut out = LoopOut::default();
    let mut flying = Flying::default();
    let mut reports: BTreeMap<AgentId, AgentReport> = BTreeMap::new();
    let mut tick = 0u64;

    let snap0 = d.snapshot();
    let trace0 = cfg.traced.then(trace::totals);
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_s();
    let t0 = Instant::now();
    let stop_timing = |d: &mut D, out: &mut LoopOut| {
        out.timed_s = t0.elapsed().as_secs_f64();
        out.cpu_s = sys::cpu_s() - cpu0;
        out.peak_rss_mb = sys::peak_rss_mb();
        if let Some(t0) = &trace0 {
            out.layers = Some(trace::delta(&trace::totals(), t0));
        }
        out.timed_snaps = (snap0.clone(), d.snapshot());
        out.steps_timed = steps(&out.timed_snaps);
    };

    for _ in 0..cfg.in_flight {
        let p = plan(out.launched);
        flying.launch(d, cfg, &mut out, p);
    }
    // A batch is timed until its last report; a closed loop for its
    // `load_ticks` ticks.
    let mut timing = true;
    while !flying.agents.is_empty() {
        let t = Instant::now();
        trace::maybe(cfg.traced, Layer::RunFor, || d.run_for(TICK));
        let drained = trace::maybe(cfg.traced, Layer::Drain, || d.drain_reports());
        if timing {
            out.platform_ns += t.elapsed().as_nanos() as u64;
        }
        tick += 1;
        let now_us = d.now_us();
        let mut finished = 0usize;
        for r in drained {
            let Some(f) = flying.remove(r.id, cfg) else {
                out.problems
                    .push(format!("report for unknown agent {}", r.id.0));
                continue;
            };
            finished += 1;
            settle_report(&mut out, &f, &r, timing);
            d.forget(r.id);
            // A batch keeps its reports for comparison with a control.
            if !cfg.replace {
                reports.insert(r.id, r);
            }
        }
        // Liveness guard: an agent past its virtual deadline is lost.
        while let Some(&(due, id)) = flying.deadlines.first() {
            if due > now_us {
                break;
            }
            let f = flying
                .remove(id, cfg)
                .expect("deadline of an agent in flight");
            eprintln!(
                "perfbench: agent {} lost: no report {} s (virtual) after launch",
                id.0,
                cfg.deadline.as_secs_f64()
            );
            out.lost.push(id.0);
            add_money(&mut out.lost_money, &f.wallet, 1);
            finished += 1;
        }
        if cfg.replace && timing {
            for _ in 0..finished {
                let p = plan(out.launched);
                flying.launch(d, cfg, &mut out, p);
            }
            if tick == cfg.load_ticks {
                timing = false;
                stop_timing(d, &mut out);
            }
        }
    }
    if timing {
        stop_timing(d, &mut out);
    }
    out.reports = reports.into_values().collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_bench::BenchAgent;
    use mar_itinerary::ItineraryBuilder;
    use mar_platform::PlatformBuilder;
    use mar_simnet::NodeId;

    /// An agent launched at a crashed home never reports: the guard must
    /// count it lost at its deadline and end the loop instead of waiting.
    #[test]
    fn liveness_guard_ends_the_loop_on_a_lost_agent() {
        let mut p = PlatformBuilder::new(2)
            .behavior("bench", BenchAgent)
            .build();
        p.world_mut().crash_now(NodeId(1));
        let itinerary = ItineraryBuilder::main("I")
            .sub("S", |s| {
                s.step("noop#0", 0);
            })
            .build()
            .expect("valid itinerary");
        let cfg = LoopCfg {
            in_flight: 2,
            replace: false,
            load_ticks: 0,
            deadline: SimDuration::from_secs(5),
            traced: false,
        };
        let out = run(&mut p, &cfg, |idx| Planned {
            spec: AgentSpec::new("bench", NodeId(idx as u32), itinerary.clone()),
            expect_steps: Some(1),
            wallet: BTreeMap::new(),
        });
        assert_eq!(out.launched, 2);
        assert_eq!(out.lost, vec![2], "the agent homed on the crashed node");
        assert_eq!(out.sim_lat_ms.len(), 1, "the other agent completed");
        assert!(out.problems.is_empty(), "{:?}", out.problems);
    }
}
