//! Benchmark scenarios shared by the micro/macro benches and the experiment
//! report binary. Everything here is deterministic per seed.

pub mod harness;

use mar_core::{LoggingMode, RollbackMode, RollbackScope};
use mar_itinerary::{Itinerary, ItineraryBuilder};
use mar_platform::{
    AgentBehavior, AgentHandle, AgentSpec, Platform, PlatformBuilder, ReportOutcome, StepCtx,
    StepDecision,
};
use mar_resources::ops::{ConvertCash, Transfer};
use mar_resources::{BankRm, ExchangeRm};
pub use mar_simnet::{BackendStats, StableFactory, WalConfig};
use mar_simnet::{LatencyModel, MetricsSnapshot, NodeId, SimDuration};
use mar_txn::{RmRegistry, TxnError};
use mar_wire::Value;

/// What a step of the benchmark agent does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Resource-only work: ledger transfer + RCE.
    Rce,
    /// Like [`StepKind::Rce`], plus an explicit savepoint at the end of the
    /// step — the savepoint-heavy pattern the log-compaction experiment
    /// measures.
    RceSave,
    /// Currency exchange against the wallet: logs a mixed entry.
    Mixed,
    /// SRO-only information gathering: pads the `notes` SRO with `usize`
    /// bytes, logging no compensating operations at all.
    Sro(usize),
    /// Triggers one rollback of the current sub on first execution.
    RollbackOnce,
    /// Pure visit: touches no data at all, so the record stays minimal and
    /// the itinerary dominates every migration.
    Noop,
}

/// The benchmark agent: executes [`StepKind`]s encoded into step names
/// (`"rce#i"`, `"mixed#i"`, `"sro:1024#i"`, `"rollback#i"`).
pub struct BenchAgent;

impl AgentBehavior for BenchAgent {
    fn step(&self, method: &str, ctx: &mut StepCtx<'_>) -> Result<StepDecision, TxnError> {
        let base = method.split('#').next().unwrap_or(method);
        if let Some(size) = base.strip_prefix("sro:") {
            let size: usize = size.parse().unwrap_or(0);
            ctx.sro_push("notes", Value::Bytes(vec![0xA5; size]));
            return Ok(StepDecision::Continue);
        }
        match base {
            "noop" => Ok(StepDecision::Continue),
            "rce" | "rcesp" => {
                // Typed op: forward transfer + derived RCE in one call
                // (byte-identical log frame to the raw pair, so the bench
                // baselines stay comparable).
                ctx.invoke(&Transfer::new("ledger", "reserve", "sink", 5))?;
                if base == "rcesp" {
                    ctx.request_savepoint();
                }
                Ok(StepDecision::Continue)
            }
            "mixed" => {
                let mut wallet =
                    mar_resources::Wallet::from_value(ctx.wro("wallet").expect("wallet"))
                        .expect("wallet decodes");
                wallet.take(2, "USD").map_err(|s| TxnError::Rejected {
                    resource: "wallet".into(),
                    reason: format!("short {s}"),
                })?;
                let coin = ctx.invoke(&ConvertCash::new("fx", "USD", "EUR", 2, "wallet"))?;
                wallet.add_coin(coin);
                ctx.set_wro("wallet", wallet.to_value().unwrap());
                Ok(StepDecision::Continue)
            }
            "rollback" => {
                let rolled = ctx.wro("rolled").and_then(Value::as_bool).unwrap_or(false);
                if rolled {
                    Ok(StepDecision::Continue)
                } else {
                    ctx.rollback_memo("rolled", Value::Bool(true));
                    Ok(StepDecision::Rollback(RollbackScope::CurrentSub))
                }
            }
            other => Ok(StepDecision::Fail(format!("unknown step {other}"))),
        }
    }
}

/// A benchmark scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of nodes (node 0 = home, the rest carry resources).
    pub nodes: u32,
    /// World seed.
    pub seed: u64,
    /// Rollback mechanism.
    pub mode: RollbackMode,
    /// SRO capture mode.
    pub logging: LoggingMode,
    /// The steps (kind, node) of the single top-level sub-itinerary.
    pub steps: Vec<(StepKind, u32)>,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Compact the rollback log before every remote transfer (the
    /// `agent.transfer_bytes.*` experiment toggle).
    pub compact: bool,
    /// Fuse same-destination compensation rounds into one transaction (the
    /// E7 batched-vs-unbatched experiment toggle).
    pub batch: bool,
    /// Route batches with remote RCEs through the cost model
    /// (ship-vs-migrate) instead of the fixed mode split.
    pub cost_routing: bool,
    /// Keep decoded agent records resident in volatile node memory between
    /// same-node steps (the E9 experiment toggle; platform default is on).
    pub resident_cache: bool,
    /// Stable-storage backend every node is built with (the E10 experiment
    /// axis; the default is the reference in-memory model).
    pub stable: StableFactory,
}

impl Scenario {
    /// Shared constructor defaults: LAN latency, state logging, raw
    /// transfers (compaction per experiment toggle), batching on, fixed
    /// mode-split routing. Every scenario family starts here so a new
    /// runtime knob has exactly one default site.
    fn base(nodes: u32, seed: u64, mode: RollbackMode, steps: Vec<(StepKind, u32)>) -> Scenario {
        assert!(
            nodes >= 2,
            "scenarios need a home node plus >= 1 resource node"
        );
        Scenario {
            nodes,
            seed,
            mode,
            logging: LoggingMode::State,
            steps,
            latency: LatencyModel::lan(),
            compact: false,
            batch: true,
            cost_routing: false,
            resident_cache: true,
            stable: StableFactory::reference(),
        }
    }

    /// A rollback scenario: `depth` work steps round-robin over the nodes,
    /// then one rollback trigger. `mixed_every = Some(k)` makes every k-th
    /// step a mixed one; `sro_pad` adds that many SRO bytes per step.
    pub fn rollback(
        depth: usize,
        nodes: u32,
        mixed_every: Option<usize>,
        sro_pad: usize,
        mode: RollbackMode,
        seed: u64,
    ) -> Scenario {
        let mut steps = Vec::new();
        for i in 0..depth {
            let node = 1 + (i as u32 % (nodes - 1));
            let kind = match mixed_every {
                Some(k) if k > 0 && i % k == 0 => StepKind::Mixed,
                _ if sro_pad > 0 && i % 2 == 1 => StepKind::Sro(sro_pad),
                _ => StepKind::Rce,
            };
            steps.push((kind, node));
        }
        steps.push((StepKind::RollbackOnce, 1 + (depth as u32 % (nodes - 1))));
        Scenario::base(nodes, seed, mode, steps)
    }

    /// The log-compaction scenario: one `sro_pad`-byte information-
    /// gathering step establishes a fat SRO state, then `depth` resource
    /// steps each end with an explicit savepoint while never touching the
    /// SROs again. Under state logging every one of those savepoints
    /// repeats the identical image — the redundancy
    /// [`RollbackLog::compact`](mar_core::RollbackLog::compact) removes
    /// before each transfer; under transition logging they carry empty
    /// deltas that compaction demotes to markers. Finishes with one
    /// rollback of the sub so the compacted log also drives a full
    /// compensation run.
    pub fn savepoint_heavy(
        depth: usize,
        nodes: u32,
        sro_pad: usize,
        logging: LoggingMode,
        seed: u64,
    ) -> Scenario {
        let mut steps = vec![(StepKind::Sro(sro_pad), 1)];
        for i in 0..depth {
            let node = 1 + (i as u32 % (nodes - 1));
            steps.push((StepKind::RceSave, node));
        }
        steps.push((StepKind::RollbackOnce, 1 + (depth as u32 % (nodes - 1))));
        Scenario {
            logging,
            ..Scenario::base(nodes, seed, RollbackMode::Optimized, steps)
        }
    }

    /// The batching scenario (macro experiment E7; table E10 in the
    /// `report` binary): `depth` resource steps in *runs* of `run_len`
    /// consecutive steps on the same node (cycling through the nodes run
    /// by run), then one rollback of the whole sub. Unbatched, the
    /// rollback commits one compensation transaction (one 2PC) per step;
    /// batched, each same-node run fuses into a single transaction — and
    /// in basic mode into a single agent hop.
    pub fn rollback_chain(
        depth: usize,
        nodes: u32,
        run_len: usize,
        mode: RollbackMode,
        seed: u64,
    ) -> Scenario {
        let run_len = run_len.max(1);
        let mut steps = Vec::new();
        for i in 0..depth {
            let node = 1 + ((i / run_len) as u32 % (nodes - 1));
            steps.push((StepKind::Rce, node));
        }
        let trigger = steps.last().map_or(1, |(_, n)| *n);
        steps.push((StepKind::RollbackOnce, trigger));
        Scenario::base(nodes, seed, mode, steps)
    }

    /// Toggles pre-transfer log compaction.
    pub fn with_compaction(mut self, on: bool) -> Scenario {
        self.compact = on;
        self
    }

    /// Toggles batched compensation rounds.
    pub fn with_batching(mut self, on: bool) -> Scenario {
        self.batch = on;
        self
    }

    /// Toggles cost-model rollback routing (ship-vs-migrate per batch).
    pub fn with_cost_routing(mut self, on: bool) -> Scenario {
        self.cost_routing = on;
        self
    }

    /// Toggles the per-node resident-record cache (E9 control arm).
    pub fn with_resident_cache(mut self, on: bool) -> Scenario {
        self.resident_cache = on;
        self
    }

    /// Selects the stable-storage backend (E10 experiment axis).
    pub fn with_stable_backend(mut self, stable: StableFactory) -> Scenario {
        self.stable = stable;
        self
    }

    /// A forward-only scenario: `depth` steps with `sro_pad` bytes of SRO
    /// growth per step.
    pub fn forward(depth: usize, nodes: u32, sro_pad: usize, seed: u64) -> Scenario {
        let steps = (0..depth)
            .map(|i| {
                let node = 1 + (i as u32 % (nodes - 1));
                if sro_pad > 0 {
                    (StepKind::Sro(sro_pad), node)
                } else {
                    (StepKind::Rce, node)
                }
            })
            .collect();
        Scenario::base(nodes, seed, RollbackMode::Optimized, steps)
    }

    /// Like [`Scenario::forward`], but the steps come in *runs* of
    /// `run_len` consecutive steps on the same node (cycling through the
    /// nodes run by run) — the locality pattern the resident-record cache
    /// serves: within a run, only the first step decodes anything.
    pub fn forward_runs(
        depth: usize,
        nodes: u32,
        run_len: usize,
        sro_pad: usize,
        seed: u64,
    ) -> Scenario {
        assert!(
            nodes >= 2,
            "scenarios need a home node plus >= 1 resource node"
        );
        let run_len = run_len.max(1);
        let steps = (0..depth)
            .map(|i| {
                let node = 1 + ((i / run_len) as u32 % (nodes - 1));
                if sro_pad > 0 {
                    (StepKind::Sro(sro_pad), node)
                } else {
                    (StepKind::Rce, node)
                }
            })
            .collect();
        Scenario::base(nodes, seed, RollbackMode::Optimized, steps)
    }

    fn itinerary(&self) -> Itinerary {
        ItineraryBuilder::main("I")
            .sub("S", |s| {
                for (i, (kind, node)) in self.steps.iter().enumerate() {
                    let name = match kind {
                        StepKind::Rce => format!("rce#{i}"),
                        StepKind::RceSave => format!("rcesp#{i}"),
                        StepKind::Mixed => format!("mixed#{i}"),
                        StepKind::Sro(n) => format!("sro:{n}#{i}"),
                        StepKind::RollbackOnce => format!("rollback#{i}"),
                        StepKind::Noop => format!("noop#{i}"),
                    };
                    s.step(name, *node);
                }
            })
            .build()
            .expect("valid scenario itinerary")
    }

    /// Builds the platform and launches the agent.
    pub fn start(&self) -> (Platform, AgentHandle) {
        let mut b = PlatformBuilder::new(self.nodes as usize)
            .seed(self.seed)
            .latency(self.latency)
            .compact_on_transfer(self.compact)
            .batch_rollback(self.batch)
            .resident_cache(self.resident_cache)
            .stable_backend(self.stable.clone())
            .rollback_routing(if self.cost_routing {
                mar_platform::RollbackRouting::CostModel
            } else {
                mar_platform::RollbackRouting::ModeSplit
            })
            .behavior("bench", BenchAgent);
        for n in 1..self.nodes {
            b = b.resources(NodeId(n), move || {
                let mut rms = RmRegistry::new();
                rms.register(Box::new(
                    BankRm::new("ledger", false)
                        .with_account("sink", 0)
                        .with_account("reserve", 1_000_000),
                ));
                rms.register(Box::new(
                    ExchangeRm::new("fx")
                        .with_rate("USD", "EUR", 1, 1)
                        .with_reserve("USD", 1_000_000)
                        .with_reserve("EUR", 1_000_000),
                ));
                rms
            });
        }
        let mut p = b.build();
        let mut spec = AgentSpec::new("bench", NodeId(0), self.itinerary());
        spec.mode = self.mode;
        spec.logging = self.logging;
        let wallet = mar_resources::Wallet::with_coins([mar_resources::Coin {
            serial: "bench-1".into(),
            value: 1_000,
            currency: "USD".into(),
        }]);
        spec.data.set_wro("wallet", wallet.to_value().unwrap());
        spec.data.set_sro("notes", Value::list([]));
        let agent = p.launch(spec);
        (p, agent)
    }

    /// Runs the scenario to completion and collects the numbers.
    ///
    /// # Panics
    ///
    /// Panics if the agent does not complete (scenarios are constructed to
    /// succeed; a hang is a bug worth a loud failure).
    pub fn run(&self) -> RunStats {
        let (mut p, agent) = self.start();
        let done = p.run_until_settled(&[agent], SimDuration::from_secs(3_600));
        assert!(done, "scenario did not settle: {self:?}");
        let report = p.report(agent).expect("report");
        assert_eq!(
            report.outcome,
            ReportOutcome::Completed,
            "scenario failed: {self:?}"
        );
        let final_record = report.record.to_bytes().expect("final record encodes");
        RunStats::collect(
            report.finished_at_us,
            report.steps_committed,
            final_record,
            p.snapshot(),
        )
    }
}

/// The fleet scenario (macro experiment E8): `agents` agents, each walking
/// `steps` ledger-transfer steps round-robin over the resource nodes, all
/// launched in one [`Platform::launch_fleet`] call and settled through the
/// home-node driver mailboxes. The stats expose the driver-cost counters
/// that pin completion detection at O(completions): one mailbox event per
/// agent, zero whole-store scans.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Fleet size.
    pub agents: usize,
    /// Number of nodes (node 0 = shared home).
    pub nodes: u32,
    /// Resource steps per agent.
    pub steps: usize,
    /// World seed.
    pub seed: u64,
    /// Keep decoded agent records resident between same-node steps (the
    /// E9 experiment toggle; platform default is on).
    pub resident_cache: bool,
    /// Worker-thread shards the simulated nodes are partitioned across
    /// (1 = every event on the calling thread).
    pub shards: usize,
    /// Spread agent homes round-robin over every node instead of sharing
    /// node 0. With one shared home, every launch, report delivery, and
    /// mailbox drain serializes on the home's shard; spreading the homes is
    /// what a deployment that wants kernel-level parallelism would do.
    pub home_spread: bool,
    /// Stable-storage backend every node is built with (the E10 experiment
    /// axis; the default is the reference in-memory model).
    pub stable: StableFactory,
}

impl FleetScenario {
    /// Runs the fleet to completion and collects the numbers.
    ///
    /// # Panics
    ///
    /// Panics if any agent fails to settle or complete.
    pub fn run(&self) -> FleetStats {
        let mut b = PlatformBuilder::new(self.nodes as usize)
            .seed(self.seed)
            .resident_cache(self.resident_cache)
            .shards(self.shards)
            .stable_backend(self.stable.clone())
            .behavior("bench", BenchAgent);
        for n in 1..self.nodes {
            b = b.resources(NodeId(n), move || {
                let mut rms = RmRegistry::new();
                rms.register(Box::new(
                    BankRm::new("ledger", false)
                        .with_account("sink", 0)
                        .with_account("reserve", 1_000_000),
                ));
                rms
            });
        }
        let mut p = b.build();
        // Critical-path profiling: same windows and schedule as an
        // unprofiled run, but the calling thread times shards one at a
        // time, so the profile is meaningful even on a single-core host.
        p.world_mut().set_shard_profiling(true);
        let nodes = self.nodes;
        let steps = self.steps;
        let home_spread = self.home_spread;
        let specs = (0..self.agents).map(|a| {
            let itinerary = ItineraryBuilder::main("I")
                .sub("S", |s| {
                    for i in 0..steps {
                        // Stagger starting nodes so the fleet spreads over
                        // the ledgers instead of convoying on node 1.
                        let node = 1 + ((a + i) as u32 % (nodes - 1));
                        s.step(format!("rce#{i}"), node);
                    }
                })
                .build()
                .expect("valid fleet itinerary");
            let home = if home_spread {
                NodeId(a as u32 % nodes)
            } else {
                NodeId(0)
            };
            AgentSpec::new("bench", home, itinerary)
        });
        let handles = p.launch_fleet(specs);
        let settled = p.run_until_settled(&handles, SimDuration::from_secs(36_000));
        assert!(settled, "fleet did not settle: {self:?}");
        let mut settle_us = 0;
        for h in &handles {
            let report = p.report(*h).expect("report");
            assert_eq!(report.outcome, ReportOutcome::Completed, "{h}: {self:?}");
            settle_us = settle_us.max(report.finished_at_us);
        }
        let m = p.snapshot();
        let critical_path_ns = p.world().shard_profile().critical_ns;
        FleetStats {
            agents: self.agents as u64,
            settle_us,
            completed: m.counter("agent.completed"),
            mbox_events: m.counter("driver.mbox_events"),
            mbox_scans: m.counter("driver.mbox_scans"),
            deep_scans: m.counter("driver.deep_scans"),
            steps_committed: m.counter("steps.committed"),
            critical_path_ns,
            metrics: m,
        }
    }
}

/// The measured quantities of one [`FleetScenario`] run.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Fleet size.
    pub agents: u64,
    /// Virtual time at which the *last* agent finished (settle latency).
    pub settle_us: u64,
    /// Agents completed.
    pub completed: u64,
    /// Driver mailbox events consumed — O(completions) by construction.
    pub mbox_events: u64,
    /// Driver mailbox probes (one per distinct home node per drain).
    pub mbox_scans: u64,
    /// Whole-store fallback scans the driver performed (0 in handle runs).
    pub deep_scans: u64,
    /// Step transactions committed across the fleet.
    pub steps_committed: u64,
    /// Critical-path wall time of the run: Σ over conservative windows of
    /// the slowest shard's busy time in that window (shard profiling on).
    pub critical_path_ns: u64,
    /// Raw metrics for anything else.
    pub metrics: MetricsSnapshot,
}

/// The measured quantities of one scenario run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Virtual completion time in microseconds.
    pub sim_us: u64,
    /// Committed steps.
    pub steps: u64,
    /// Forward agent transfers.
    pub transfers_fwd: u64,
    /// Bytes moved by forward transfers.
    pub bytes_fwd: u64,
    /// Rollback agent transfers (the §4.4.1 optimization target).
    pub transfers_rbk: u64,
    /// Bytes moved by rollback transfers.
    pub bytes_rbk: u64,
    /// RCE lists shipped.
    pub rce_shipped: u64,
    /// Bytes of shipped RCE lists.
    pub rce_bytes: u64,
    /// Compensation rounds committed (one per compensated step, batched or
    /// not).
    pub rounds: u64,
    /// Batched compensation transactions committed — the compensation 2PC
    /// count (equals `rounds` when batching is off).
    pub batched_rounds: u64,
    /// Compensation transactions saved by fusion.
    pub rounds_saved: u64,
    /// Batches the cost model routed as an agent migration.
    pub cost_migrations: u64,
    /// Pre-transfer log compaction passes that changed the log.
    pub compactions: u64,
    /// Pre-transfer compaction passes skipped by the clean-bit / cost gate.
    pub compactions_skipped: u64,
    /// Bytes shaved off rollback logs by pre-transfer compaction.
    pub compaction_saved: u64,
    /// Total network bytes sent.
    pub net_bytes: u64,
    /// The finished agent's serialized record — the final stable state, for
    /// equal-state assertions between experiment arms.
    pub final_record: Vec<u8>,
    /// Raw metrics for anything else.
    pub metrics: MetricsSnapshot,
}

impl RunStats {
    fn collect(sim_us: u64, steps: u64, final_record: Vec<u8>, m: MetricsSnapshot) -> RunStats {
        RunStats {
            sim_us,
            steps,
            transfers_fwd: m.counter("agent.transfers.forward"),
            bytes_fwd: m.counter("agent.transfer_bytes.forward"),
            transfers_rbk: m.counter("agent.transfers.rollback"),
            bytes_rbk: m.counter("agent.transfer_bytes.rollback"),
            rce_shipped: m.counter("rollback.rce_shipped"),
            rce_bytes: m.counter("rollback.rce_bytes"),
            rounds: m.counter("rollback.rounds"),
            batched_rounds: m.counter("rollback.batched_rounds"),
            rounds_saved: m.counter("rollback.rounds_saved"),
            cost_migrations: m.counter("rollback.cost_migrations"),
            compactions: m.counter("log.compactions"),
            compactions_skipped: m.counter("log.compactions_skipped"),
            compaction_saved: m.counter("log.compaction_saved_bytes"),
            net_bytes: m.counter("net.bytes_sent"),
            final_record,
            metrics: m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_settles_with_one_mailbox_event_per_agent() {
        let stats = FleetScenario {
            agents: 100,
            nodes: 4,
            steps: 2,
            seed: 23,
            resident_cache: true,
            shards: 1,
            home_spread: false,
            stable: StableFactory::reference(),
        }
        .run();
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.mbox_events, 100, "one completion event per agent");
        assert_eq!(stats.deep_scans, 0, "no whole-store driver scans");
        assert_eq!(stats.steps_committed, 200);
        assert!(stats.settle_us > 0);
    }

    #[test]
    fn forward_scenario_runs() {
        let s = Scenario::forward(6, 4, 128, 1);
        let stats = s.run();
        assert_eq!(stats.steps, 6);
        assert_eq!(stats.transfers_rbk, 0);
    }

    #[test]
    fn rollback_scenario_modes_agree_on_rounds() {
        let basic = Scenario::rollback(4, 4, None, 0, RollbackMode::Basic, 2).run();
        let opt = Scenario::rollback(4, 4, None, 0, RollbackMode::Optimized, 2).run();
        assert_eq!(basic.rounds, opt.rounds);
        assert_eq!(opt.transfers_rbk, 0);
        assert_eq!(basic.transfers_rbk, 4);
    }

    #[test]
    fn compaction_shrinks_transfers_without_changing_outcomes() {
        let base = Scenario::savepoint_heavy(8, 4, 1024, LoggingMode::State, 5);
        let off = base.clone().run();
        let on = base.with_compaction(true).run();
        // Same execution, fewer bytes on the wire.
        assert_eq!(off.steps, on.steps);
        assert_eq!(off.rounds, on.rounds);
        assert_eq!(off.transfers_fwd, on.transfers_fwd);
        assert_eq!(off.transfers_rbk, on.transfers_rbk);
        assert_eq!(off.compactions, 0);
        assert!(on.compactions > 0, "compaction passes must have run");
        assert!(on.compaction_saved > 0);
        let total_off = off.bytes_fwd + off.bytes_rbk;
        let total_on = on.bytes_fwd + on.bytes_rbk;
        assert!(
            (total_on as f64) < 0.8 * total_off as f64,
            "expected >= 20% transfer-byte reduction, got {total_off} -> {total_on}"
        );
    }

    #[test]
    fn compaction_under_transition_logging_is_safe() {
        let base = Scenario::savepoint_heavy(6, 4, 512, LoggingMode::Transition, 9);
        let off = base.clone().run();
        let on = base.with_compaction(true).run();
        assert_eq!(off.steps, on.steps);
        assert_eq!(off.rounds, on.rounds);
        assert!(on.bytes_fwd + on.bytes_rbk <= off.bytes_fwd + off.bytes_rbk);
    }

    #[test]
    fn batching_cuts_compensation_transactions_at_equal_final_state() {
        for mode in [RollbackMode::Basic, RollbackMode::Optimized] {
            let base = Scenario::rollback_chain(12, 4, 6, mode, 17);
            let unbatched = base.clone().with_batching(false).run();
            let batched = base.clone().with_batching(true).run();
            // Same execution, same compensated work, identical final state.
            assert_eq!(unbatched.steps, batched.steps, "{mode:?}");
            assert_eq!(unbatched.rounds, batched.rounds, "{mode:?}");
            assert_eq!(unbatched.final_record, batched.final_record, "{mode:?}");
            // Unbatched: one transaction per round; batched: one per
            // same-node run (12 steps in runs of 6 → 2 transactions).
            assert_eq!(unbatched.batched_rounds, unbatched.rounds, "{mode:?}");
            assert_eq!(unbatched.rounds_saved, 0, "{mode:?}");
            assert!(
                batched.batched_rounds < unbatched.batched_rounds,
                "{mode:?}: {} !< {}",
                batched.batched_rounds,
                unbatched.batched_rounds
            );
            assert_eq!(
                batched.rounds_saved,
                unbatched.rounds - batched.batched_rounds,
                "{mode:?}"
            );
            if mode == RollbackMode::Basic {
                // Fusion also fuses the backward walk: one hop per run.
                assert!(
                    batched.transfers_rbk < unbatched.transfers_rbk,
                    "basic-mode batching must save agent hops"
                );
                assert!(batched.bytes_rbk < unbatched.bytes_rbk);
            }
        }
    }

    #[test]
    fn wal_backend_is_invisible_to_scenarios() {
        let base = Scenario::forward(12, 4, 256, 3);
        let reference = base.clone().run();
        let wal = base
            .with_stable_backend(StableFactory::wal(WalConfig::default()))
            .run();
        assert_eq!(reference.final_record, wal.final_record);
        assert_eq!(reference.sim_us, wal.sim_us);
        for key in ["stable.writes", "stable.bytes_written", "stable.commits"] {
            assert_eq!(
                reference.metrics.counter(key),
                wal.metrics.counter(key),
                "{key} diverges across backends"
            );
        }
        let writes = wal.metrics.counter("stable.writes");
        let commits = wal.metrics.counter("stable.commits");
        eprintln!("stable.writes={writes} stable.commits={commits}");
        assert!(commits > 0 && commits < writes, "group commit must batch");
    }

    #[test]
    fn cost_routing_converges_and_preserves_final_state() {
        let base = Scenario::rollback_chain(12, 4, 6, RollbackMode::Optimized, 21);
        let split = base.clone().run();
        let routed = base.clone().with_cost_routing(true).run();
        assert_eq!(split.steps, routed.steps);
        assert_eq!(split.rounds, routed.rounds);
        assert_eq!(split.final_record, routed.final_record);
        // The small bench agent beats the fused RCE lists on a LAN, so the
        // cost model migrates at least one batch — and whenever it does,
        // that batch's list is not shipped.
        assert!(routed.cost_migrations > 0, "cost model never fired");
        assert!(routed.rce_shipped < split.rce_shipped);
    }
}
