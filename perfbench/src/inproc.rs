//! The in-process workloads: `fleet_forward`, `rollback_nocrash` and
//! `rollback_crash`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mar_bench::BenchAgent;
use mar_core::RollbackMode;
use mar_itinerary::{Itinerary, ItineraryBuilder};
use mar_platform::{AgentSpec, Platform, PlatformBuilder, StableFactory, WalConfig};
use mar_resources::{BankRm, Coin, ExchangeRm, Wallet};
use mar_simnet::{BackendStats, FailurePlan, NodeId, SimDuration, SimRng};
use mar_txn::ResourceManager;
use mar_wire::Value;

use crate::drive::{self, add_money, LoopCfg, LoopOut, Planned, TICK};
use crate::sys;
use crate::wrap::{registry, traced_stable, TracedBehavior};
use crate::Size;

/// Nodes of both in-process worlds.
const NODES: u32 = 9;
/// Steps per `fleet_forward` agent.
const FLEET_STEPS: usize = 12;
/// Itinerary templates in the `fleet_forward` pool — more than the
/// 256-entry per-node intern table, so the tail of the popularity curve
/// misses.
const FLEET_TEMPLATES: usize = 384;
/// Per-agent virtual deadline of the liveness guard: far beyond any
/// agent's life, even one stalled by several crashes.
const DEADLINE: SimDuration = SimDuration::from_secs(60);
/// Wallet every `rollback_crash` agent carries, USD.
const WALLET_USD: i64 = 1_000;

/// Which in-process workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 2 shards, reference backend, SRO-only agents on shared itineraries.
    FleetForward,
    /// 1 shard, in-memory WAL, resource agents with partial rollbacks
    /// under a crash plan.
    RollbackCrash,
    /// `RollbackCrash` without the crash plan.
    RollbackNoCrash,
}

/// One epoch of an in-process workload.
pub struct Epoch {
    /// Loop results.
    pub out: LoopOut,
    /// Wall seconds of the world build.
    pub setup_s: f64,
    /// Money audit after the epoch settled, drained reports included.
    pub audit: BTreeMap<String, i64>,
    /// Stable backend totals of the world at the end.
    pub backend: BackendStats,
    /// Crashes the failure plan scheduled.
    pub crashes: u32,
}

/// One phase (untraced or traced) of an in-process workload.
pub struct Phase {
    /// Epochs in order.
    pub epochs: Vec<Epoch>,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

fn bank_fx() -> Vec<Box<dyn ResourceManager>> {
    vec![
        Box::new(
            BankRm::new("ledger", false)
                .with_account("sink", 0)
                .with_account("reserve", 1_000_000),
        ),
        Box::new(
            ExchangeRm::new("fx")
                .with_rate("USD", "EUR", 1, 1)
                .with_reserve("USD", 1_000_000)
                .with_reserve("EUR", 1_000_000),
        ),
    ]
}

fn build(kind: Kind, seed: u64, ticks: u64, traced: bool) -> (Platform, u32) {
    let fleet = kind == Kind::FleetForward;
    let mut b = PlatformBuilder::new(NODES as usize)
        .seed(seed)
        .shards(if fleet { 2 } else { 1 });
    b = if traced {
        b.behavior("bench", TracedBehavior(BenchAgent))
    } else {
        b.behavior("bench", BenchAgent)
    };
    let stable = if fleet {
        StableFactory::reference()
    } else {
        StableFactory::wal(WalConfig::default())
    };
    b = b.stable_backend(if traced {
        traced_stable(stable)
    } else {
        stable
    });
    if !fleet {
        // Nodes 1.. carry the resources and are the ones the failure plan
        // crashes; agent homes are spread over every node.
        for n in 1..NODES {
            b = b.resources(NodeId(n), move || registry(bank_fx(), traced));
        }
    }
    let mut p = b.build();
    let mut crashes = 0;
    if kind == Kind::RollbackCrash {
        let plan = FailurePlan {
            node_mtbf: Some(SimDuration::from_secs(5)),
            node_mttr: SimDuration::from_millis(500),
            horizon: SimDuration::from_micros(TICK.as_micros() * ticks),
            targets: (1..NODES).map(NodeId).collect(),
            ..FailurePlan::none()
        };
        crashes = plan.install(p.world_mut()).0;
    }
    (p, crashes)
}

/// Same-node run lengths of every `fleet_forward` template (runs of 1–4
/// summing to `FLEET_STEPS`). Templates differ in the order of the runs
/// and in the nodes, not in how many migrations they make, so the work per
/// step does not depend on which templates a seed makes popular.
const FLEET_RUNS: [usize; 6] = [4, 3, 2, 1, 1, 1];

/// The `fleet_forward` template pool: node walks of `FLEET_STEPS` steps in
/// same-node runs, each template distinct.
fn fleet_templates(seed: u64) -> Vec<Itinerary> {
    let mut rng = SimRng::seed_from(seed ^ 0xF1EE_7000);
    (0..FLEET_TEMPLATES)
        .map(|t| {
            let mut runs = FLEET_RUNS;
            rng.shuffle(&mut runs);
            let mut nodes = Vec::with_capacity(FLEET_STEPS);
            let mut node = rng.below(u64::from(NODES)) as u32;
            for run in runs {
                nodes.extend(std::iter::repeat_n(node, run));
                node = (node + 1 + rng.below(u64::from(NODES) - 1) as u32) % NODES;
            }
            ItineraryBuilder::main("F")
                .sub("S", |s| {
                    for (i, n) in nodes.iter().enumerate() {
                        s.step(format!("sro:256#{t}-{i}"), *n);
                    }
                })
                .build()
                .expect("valid fleet template")
        })
        .collect()
}

/// `n` work steps (transfer, exchange, or transfer plus savepoint) in
/// same-node runs of 1–3 over the resource nodes, starting at `node`.
fn work_steps(rng: &mut SimRng, n: usize, node: &mut u32) -> Vec<(&'static str, u32)> {
    let mut v = Vec::new();
    while v.len() < n {
        let run = 1 + rng.below(3) as usize;
        for _ in 0..run.min(n - v.len()) {
            let kind = match rng.below(10) {
                0..=4 => "rce",
                5..=7 => "mixed",
                _ => "rcesp",
            };
            v.push((kind, *node));
        }
        // Next run on a different resource node.
        *node = 1 + (*node + rng.below(u64::from(NODES) - 2) as u32) % (NODES - 1);
    }
    v
}

/// A `rollback_crash` itinerary, unique to launch `idx`: a short sub of
/// work steps, then a sub whose middle step rolls the sub back once
/// before the agent carries on.
fn rollback_itinerary(rng: &mut SimRng, idx: u64) -> Itinerary {
    let mut node = 1 + rng.below(u64::from(NODES) - 1) as u32;
    let n = 2 + rng.below(2) as usize;
    let head = work_steps(rng, n, &mut node);
    let n = 2 + rng.below(3) as usize;
    let before = work_steps(rng, n, &mut node);
    let trigger = before.last().map_or(1, |&(_, n)| n);
    let n = 1 + rng.below(3) as usize;
    let after = work_steps(rng, n, &mut node);
    ItineraryBuilder::main("R")
        .sub("A", |s| {
            for (i, (k, n)) in head.iter().enumerate() {
                s.step(format!("{k}#{idx}-a{i}"), *n);
            }
        })
        .sub("B", |s| {
            for (i, (k, n)) in before.iter().enumerate() {
                s.step(format!("{k}#{idx}-b{i}"), *n);
            }
            s.step(format!("rollback#{idx}"), trigger);
            for (i, (k, n)) in after.iter().enumerate() {
                s.step(format!("{k}#{idx}-c{i}"), *n);
            }
        })
        .build()
        .expect("valid rollback itinerary")
}

/// Epoch shape: agents in flight, ticks per epoch, epochs in the
/// deterministic window.
fn shape(kind: Kind, size: Size) -> (usize, u64, usize) {
    match (kind, size) {
        (Kind::FleetForward, Size::Full) => (1024, 12, 3),
        (Kind::FleetForward, Size::Short) => (64, 20, 1),
        (_, Size::Full) => (64, 40, 10),
        (_, Size::Short) => (16, 100, 1),
    }
}

/// Epochs in the deterministic window.
pub fn det_epochs(kind: Kind, size: Size) -> usize {
    shape(kind, size).2
}

/// Advances virtual time until every node has been up for a second, so
/// retransmissions and transaction decisions land before the audit.
fn settle(p: &mut Platform) {
    let mut calm = 0;
    for _ in 0..100_000 {
        p.run_for(TICK);
        let w = p.world();
        calm = if w.node_ids().iter().all(|n| w.is_up(*n)) {
            calm + 1
        } else {
            0
        };
        if calm >= 20 {
            return;
        }
    }
}

fn plan(kind: Kind, rng: &mut SimRng, templates: &[Itinerary], idx: u64) -> Planned {
    match kind {
        Kind::FleetForward => {
            // Skewed popularity: a cubed uniform draw favours the head of
            // the pool while the tail still gets traffic.
            let pick = (rng.f64().powi(3) * templates.len() as f64) as usize;
            let mut spec = AgentSpec::new(
                "bench",
                NodeId((idx % u64::from(NODES)) as u32),
                templates[pick.min(templates.len() - 1)].clone(),
            );
            spec.data.set_sro("notes", Value::list([]));
            Planned {
                spec,
                expect_steps: Some(FLEET_STEPS as u64),
                wallet: BTreeMap::new(),
            }
        }
        Kind::RollbackCrash | Kind::RollbackNoCrash => {
            let home = NodeId((idx % u64::from(NODES)) as u32);
            let mut spec = AgentSpec::new("bench", home, rollback_itinerary(rng, idx));
            spec.mode = if idx.is_multiple_of(2) {
                RollbackMode::Basic
            } else {
                RollbackMode::Optimized
            };
            let wallet = Wallet::with_coins([Coin {
                serial: format!("w{idx}"),
                value: WALLET_USD,
                currency: "USD".into(),
            }]);
            spec.data
                .set_wro("wallet", wallet.to_value().expect("wallet encodes"));
            spec.data.set_sro("notes", Value::list([]));
            Planned {
                spec,
                expect_steps: None,
                wallet: BTreeMap::from([("USD".to_owned(), WALLET_USD)]),
            }
        }
    }
}

/// One epoch: a fresh world under closed-loop load for a fixed number of
/// ticks, then settled and audited.
fn epoch(kind: Kind, seed: u64, size: Size, traced: bool, problems: &mut Vec<String>) -> Epoch {
    let (in_flight, ticks, _) = shape(kind, size);
    let t = Instant::now();
    let (mut p, crashes) = build(kind, seed, ticks, traced);
    let templates = if kind == Kind::FleetForward {
        fleet_templates(seed)
    } else {
        Vec::new()
    };
    let setup_s = t.elapsed().as_secs_f64();
    let initial = p.money_audit(&["wallet"]);
    let cfg = LoopCfg {
        in_flight,
        replace: true,
        load_ticks: ticks,
        deadline: DEADLINE,
        traced,
    };
    let mut rng = SimRng::seed_from(seed ^ 0xA6E7_5000);
    let out = drive::run(&mut p, &cfg, |idx| plan(kind, &mut rng, &templates, idx));
    problems.extend(out.problems.iter().cloned());
    settle(&mut p);
    let mut audit = p.money_audit(&["wallet"]);
    add_money(&mut audit, &out.retired, 1);
    let mut expected = initial;
    add_money(&mut expected, &out.carried_in, 1);
    // A lost agent may have vanished with its wallet (then the audit is
    // short by exactly that wallet) or still sit somewhere (then nothing
    // is missing); any other difference means money was made or destroyed.
    let mut without_lost = expected.clone();
    add_money(&mut without_lost, &out.lost_money, -1);
    if audit != expected && audit != without_lost {
        problems.push(format!(
            "money not conserved: audit {audit:?}, expected {expected:?} (lost agents carried {:?})",
            out.lost_money
        ));
    }
    Epoch {
        backend: p.world().stable_totals(),
        out,
        setup_s,
        audit,
        crashes,
    }
}

/// Runs one phase of an in-process workload: epochs with seeds derived
/// from `seed` until the wall budget and the deterministic window are
/// both covered.
pub fn run(kind: Kind, seed: u64, size: Size, min_wall: Duration, traced: bool) -> Phase {
    let det = det_epochs(kind, size);
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut problems = Vec::new();
    let mut timed = 0.0;
    while epochs.len() < det || timed < min_wall.as_secs_f64() {
        let e = epoch(
            kind,
            sys::mix(seed, 0xE90C_0000 + epochs.len() as u64),
            size,
            traced,
            &mut problems,
        );
        timed += e.out.timed_s;
        epochs.push(e);
    }
    Phase { epochs, problems }
}
