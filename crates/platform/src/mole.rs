//! The `mole` service: one per node, hosting the agent runtime, the agent
//! input queue, the transaction manager roles, and the resource managers.
//!
//! Forward execution follows the exactly-once protocol of \[11\] (§2): the
//! agent is read from the node's stable input queue, the step runs inside a
//! step transaction spanning local resources and the next node's queue, and
//! commit is a presumed-abort 2PC between the two nodes. Rollback executes
//! the plans of `mar-core`'s planners inside compensation transactions with
//! the same machinery (§4.3, §4.4).
//!
//! Crash semantics: everything volatile here (locks, undo, in-flight 2PC
//! state, timers) dies with the node and is rebuilt in `on_start` from
//! stable storage — queue items, RM snapshots, decision/prepared records.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mar_core::comp::CompOpRegistry;
use mar_core::{
    plan_batch, plan_single, start_rollback, AfterRound, AgentRecord, AgentStatus, CompError,
    CostModel, Destination, ResidentRecord, StartPlan,
};
use mar_simnet::{Address, Ctx, NodeId, Service, SimDuration};
use mar_txn::{
    twopc::Action, Coordinator, Participant, PreparedEntry, RemoteWork, RmRegistry, TxMsg, TxnId,
    TxnIdGen,
};

use crate::behavior::{BehaviorRegistry, StepDecision};
use crate::msg::{AgentReport, MoleMsg, RceList, ReportOutcome};
use crate::stepctx::{RmAccess, StepCtx};

/// Service name of the mole runtime on every node.
pub const MOLE: &str = "mole";

const TAG_RETRY_2PC: u64 = 1;
const TAG_KICK: u64 = 2;
const ITEM_TAG_BASE: u64 = 1 << 32;

/// CPU cost of one compaction pass per savepoint-payload kilobyte, in
/// microseconds — the measured `log/compact/segment/*` microbench rate
/// (~0.75 µs/KiB in `BENCH_log.json`), rounded up.
const COMPACTION_CPU_US_PER_KB: u64 = 1;

const KEY_QSEQ: &str = "qseq";
const KEY_TXNSEQ: &str = "txnseq";
const KEY_MBOXSEQ: &str = "mboxseq";
pub(crate) const Q_PREFIX: &str = "q/";
const RM_PREFIX: &str = "rm/";
const DECISION_PREFIX: &str = "2pc/decision/";
const PREPARED_PREFIX: &str = "2pc/prepared/";
const DONE2PC_PREFIX: &str = "2pc/done/";
pub(crate) const REPORT_PREFIX: &str = "done/";
pub(crate) const HOME_REPORT_PREFIX: &str = "report/";
/// Stable outbox of reports awaiting the home node's ack (retransmitted on
/// the 2PC retry timer; survives crashes of the completing node).
pub(crate) const OUTBOX_PREFIX: &str = "report-outbox/";
/// The home node's driver mailbox: one entry per completed agent, consumed
/// (and deleted) by the driving [`Platform`](crate::Platform).
pub(crate) const MBOX_PREFIX: &str = "mbox/";

/// Platform metric names.
pub mod keys {
    /// Agents accepted for execution.
    pub const AGENT_LAUNCHED: &str = "agent.launched";
    /// Agents whose itinerary completed.
    pub const AGENT_COMPLETED: &str = "agent.completed";
    /// Agents that gave up.
    pub const AGENT_FAILED: &str = "agent.failed";
    /// Agent transfers during forward execution.
    pub const TRANSFERS_FORWARD: &str = "agent.transfers.forward";
    /// Agent transfers during rollback (the §4.4.1 optimization target).
    pub const TRANSFERS_ROLLBACK: &str = "agent.transfers.rollback";
    /// Bytes of agent records moved forward.
    pub const TRANSFER_BYTES_FORWARD: &str = "agent.transfer_bytes.forward";
    /// Bytes of agent records moved during rollback.
    pub const TRANSFER_BYTES_ROLLBACK: &str = "agent.transfer_bytes.rollback";
    /// Step transactions committed.
    pub const STEPS_COMMITTED: &str = "steps.committed";
    /// Step transactions aborted for transient reasons (lock conflicts).
    pub const STEPS_ABORTED: &str = "steps.aborted_transient";
    /// Rollbacks initiated.
    pub const ROLLBACK_STARTED: &str = "rollback.started";
    /// Rollbacks that reached their savepoint.
    pub const ROLLBACK_COMPLETED: &str = "rollback.completed";
    /// Compensation rounds committed — one per compensated step, whether
    /// or not several were fused into one transaction (so the count stays
    /// comparable with unbatched runs).
    pub const ROLLBACK_ROUNDS: &str = "rollback.rounds";
    /// Batched compensation transactions committed (each is one 2PC; fuses
    /// one or more rounds).
    pub const ROLLBACK_BATCHED_ROUNDS: &str = "rollback.batched_rounds";
    /// Compensation transactions (and their 2PCs) saved by fusion:
    /// `rounds - batched_rounds`, accumulated per batch.
    pub const ROLLBACK_ROUNDS_SAVED: &str = "rollback.rounds_saved";
    /// Batches the cost model routed as an agent migration instead of a
    /// shipped RCE list ([`CostModel`](super::RollbackRouting::CostModel)).
    pub const ROLLBACK_COST_MIGRATIONS: &str = "rollback.cost_migrations";
    /// RCE lists shipped to resource nodes (optimized mode).
    pub const RCE_SHIPPED: &str = "rollback.rce_shipped";
    /// Bytes of shipped RCE lists.
    pub const RCE_BYTES: &str = "rollback.rce_bytes";
    /// Compensating operations executed.
    pub const COMP_OPS: &str = "comp.ops";
    /// Transient compensation failures (retried).
    pub const COMP_TRANSIENT: &str = "comp.failures_transient";
    /// Permanent compensation failures (agent fails).
    pub const COMP_PERMANENT: &str = "comp.failures_permanent";
    /// Whole-log discards at top-level sub-itinerary completion.
    pub const LOG_DISCARDS: &str = "log.discards";
    /// Bytes freed by log discards.
    pub const LOG_DISCARD_BYTES: &str = "log.discard_bytes";
    /// Savepoint entries removed when sub-itineraries completed.
    pub const SAVEPOINTS_REMOVED: &str = "log.savepoints_removed";
    /// Pre-transfer log compaction passes that rewrote at least one
    /// savepoint payload.
    pub const LOG_COMPACTIONS: &str = "log.compactions";
    /// Pre-transfer compaction passes skipped because the log was clean
    /// since its last pass or the cost model said the CPU time cannot pay
    /// for the bytes saved.
    pub const LOG_COMPACTIONS_SKIPPED: &str = "log.compactions_skipped";
    /// Bytes shaved off rollback logs by pre-transfer compaction.
    pub const LOG_COMPACTION_SAVED_BYTES: &str = "log.compaction_saved_bytes";
    /// Distributed transactions committed at this coordinator.
    pub const TXN_COMMITTED: &str = "txn.committed";
    /// Distributed transactions aborted at this coordinator.
    pub const TXN_ABORTED: &str = "txn.aborted";
    /// Report retransmissions from a completing node's stable outbox (the
    /// home node's ack was lost or late).
    pub const REPORT_RETRANSMITS: &str = "report.retransmits";
    /// Completion events consumed from driver mailboxes — one per finished
    /// agent, however long the run.
    pub const DRIVER_MBOX_EVENTS: &str = "driver.mbox_events";
    /// Driver passes over home-node mailboxes (each is one bounded prefix
    /// probe, not a store walk).
    pub const DRIVER_MBOX_SCANS: &str = "driver.mbox_scans";
    /// Full stable-store scans the driver fell back to (legacy
    /// [`Platform::report`](crate::Platform::report) path for agents not
    /// launched through a handle; zero in handle-driven runs).
    pub const DRIVER_DEEP_SCANS: &str = "driver.deep_scans";
    /// Finished-agent artifacts garbage-collected after the driver drained
    /// the report: the home `report/<id>` copy, the completing node's
    /// `done/<id>` record and its outbox entry — one increment per agent.
    pub const DRIVER_REPORTS_GC: &str = "driver.reports_gc";
    /// Cached reports dropped by the driver's LRU cap
    /// ([`PlatformBuilder::report_cache_cap`](crate::PlatformBuilder::report_cache_cap));
    /// a non-zero value means some finished agents' reports are no longer
    /// retrievable from memory.
    pub const DRIVER_REPORTS_EVICTED: &str = "driver.reports_evicted";
    /// Queue items served from the node's volatile resident-record cache —
    /// steps that decoded nothing at all.
    pub const RESIDENT_HITS: &str = "resident.hits";
    /// Queue items parsed from stable bytes (cache cold, disabled, or the
    /// agent just arrived / retried).
    pub const RESIDENT_MISSES: &str = "resident.misses";
}

/// How the runtime decides, per compensation batch with remote resource
/// compensation entries, where that work executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RollbackRouting {
    /// Fig. 5's fixed rule: non-mixed batches always ship their RCE list to
    /// the resource node; the agent never moves for them.
    #[default]
    ModeSplit,
    /// The \[16\]-style decision of §4.4.1
    /// ([`CostModel::migrate_for_batch`]): per batch, compare shipping the
    /// fused RCE list against migrating the agent (record + log) to the
    /// resource node, and take the cheaper route under
    /// [`MoleCfg::cost_model`].
    CostModel,
}

/// Tunables of a node runtime.
#[derive(Debug, Clone)]
pub struct MoleCfg {
    /// Virtual execution time of one step (or compensation round).
    pub step_cost: SimDuration,
    /// Base retry backoff after transient failures.
    pub retry_base: SimDuration,
    /// Exponential backoff cap (`retry_base * 2^cap`).
    pub retry_max_exp: u32,
    /// 2PC retransmission period.
    pub tm_retry: SimDuration,
    /// After this many failed attempts on one queue item the agent is
    /// failed instead of retried — the escalation strategy for
    /// unresolvable (compensation) failures the paper defers to \[4\]/\[10\].
    pub max_attempts: u32,
    /// Compact the rollback log before every *remote* transfer
    /// ([`mar_core::RollbackLog::compact`]): duplicate savepoint images and
    /// empty deltas become markers, shrinking `agent.transfer_bytes.*`.
    /// Local re-enqueues are never compacted (nothing crosses the wire),
    /// and a pass is skipped when the log is clean since its last pass or
    /// the [`cost_model`](Self::cost_model) says the CPU time cannot pay
    /// for the bytes saved. On by default now that the experiment baselines
    /// carry compacted numbers (`BENCH_macro.json` keeps a raw-bytes
    /// control run); disable via
    /// [`PlatformBuilder::compact_on_transfer`](crate::PlatformBuilder::compact_on_transfer)
    /// to reproduce the raw-byte experiments.
    pub compact_on_transfer: bool,
    /// Fuse maximal same-destination runs of compensation rounds into one
    /// transaction ([`mar_core::plan_batch`]); off falls back to one
    /// transaction per compensated step ([`mar_core::plan_single`], the
    /// unbatched Fig. 4b/5b behaviour, kept for control experiments).
    pub batch_rollback: bool,
    /// Where a batch's remote resource compensation entries execute.
    pub rollback_routing: RollbackRouting,
    /// Link cost model used by the compaction gate and by
    /// [`RollbackRouting::CostModel`]. Defaults to the LAN parameters of
    /// the simulator's default latency model.
    pub cost_model: CostModel,
    /// Keep the decoded record of an agent resident in volatile memory
    /// between steps on the same node (keyed by queue key, installed only
    /// when the step transaction commits). Steps served from the cache
    /// decode nothing; stable durability is unchanged — the record is
    /// still written through to the stable queue on every commit, and a
    /// crash simply falls back to re-parsing those bytes. On by default;
    /// disable for the E9 control arm.
    pub resident_cache: bool,
}

impl Default for MoleCfg {
    fn default() -> Self {
        MoleCfg {
            step_cost: SimDuration::from_millis(5),
            retry_base: SimDuration::from_millis(20),
            retry_max_exp: 6,
            tm_retry: SimDuration::from_millis(50),
            max_attempts: 40,
            compact_on_transfer: true,
            batch_rollback: true,
            rollback_routing: RollbackRouting::default(),
            cost_model: CostModel::default(),
            resident_cache: true,
        }
    }
}

#[derive(Debug, Default)]
struct Effects {
    delete_queue: Vec<String>,
    put_queue: Vec<(String, Vec<u8>)>,
    report: Option<(u32, Vec<u8>)>,
    metrics: Vec<(&'static str, u64)>,
}

struct ActiveTxn {
    queue_key: String,
    effects: Effects,
    /// The post-step resident record to install in the cache if (and only
    /// if) this transaction commits — its splice-encoded bytes are the
    /// `put_queue` entry for the same key, so cache and stable storage can
    /// never diverge. Dropped on abort.
    resident: Option<ResidentRecord>,
}

enum ItemError {
    Transient(String),
    Permanent(String),
}

enum NextHop {
    Step(u32),
    Finished,
}

/// The per-node runtime service.
pub struct MoleService {
    cfg: MoleCfg,
    behaviors: Arc<BehaviorRegistry>,
    comps: Arc<CompOpRegistry>,
    rms: RmRegistry,
    idgen: Option<TxnIdGen>,
    co: Coordinator,
    pa: Participant,
    active: BTreeMap<TxnId, ActiveTxn>,
    live_branches: BTreeSet<TxnId>,
    processing: BTreeSet<String>,
    attempts: BTreeMap<String, u32>,
    tag_seq: u64,
    tag_map: BTreeMap<u64, String>,
    /// Virtual time of the last (re)transmission per stable-outbox report
    /// key, so the retry timer only retransmits entries that actually
    /// waited a full retry period — not ones whose ack is still in flight.
    /// Volatile on purpose: after a crash every surviving outbox entry is
    /// retransmitted immediately, exactly as before.
    outbox_sent: BTreeMap<String, u64>,
    /// Volatile per-queue-key cache of decoded agent records
    /// ([`MoleCfg::resident_cache`]): while an agent stays on this node,
    /// its working record never leaves memory between steps. Entries are
    /// taken out at the start of processing and re-installed only by a
    /// committing transaction; migration, rollback hand-off, completion,
    /// aborts and crashes (the service is rebuilt) all leave the cache
    /// without the key, so recovery re-decodes from stable bytes exactly
    /// as before.
    resident: BTreeMap<String, ResidentRecord>,
}

impl MoleService {
    /// Creates the runtime with its resources and shared registries.
    pub fn new(
        cfg: MoleCfg,
        behaviors: Arc<BehaviorRegistry>,
        comps: Arc<CompOpRegistry>,
        rms: RmRegistry,
    ) -> Self {
        MoleService {
            cfg,
            behaviors,
            comps,
            rms,
            idgen: None,
            co: Coordinator::new(),
            pa: Participant::new(),
            active: BTreeMap::new(),
            live_branches: BTreeSet::new(),
            processing: BTreeSet::new(),
            attempts: BTreeMap::new(),
            tag_seq: 0,
            tag_map: BTreeMap::new(),
            outbox_sent: BTreeMap::new(),
            resident: BTreeMap::new(),
        }
    }

    /// The node's resource managers (test inspection).
    pub fn rms(&self) -> &RmRegistry {
        &self.rms
    }

    // ----- plumbing ---------------------------------------------------------

    fn send_tx(&self, ctx: &mut Ctx<'_>, to: NodeId, msg: TxMsg) {
        let payload = MoleMsg::Tx {
            from: ctx.node(),
            msg,
        }
        .encode();
        ctx.send(Address::new(to, MOLE), payload);
    }

    fn alloc_txn(&mut self, ctx: &mut Ctx<'_>) -> TxnId {
        let idgen = self.idgen.as_mut().expect("started");
        let id = idgen.next_id();
        // Persist the floor so recovery never reissues an id.
        ctx.stable_put(KEY_TXNSEQ, mar_wire::to_bytes(&id.seq).unwrap());
        id
    }

    fn enqueue_local(&mut self, ctx: &mut Ctx<'_>, bytes: Vec<u8>) {
        let seq: u64 = ctx
            .stable_get(KEY_QSEQ)
            .and_then(|b| mar_wire::from_slice(b).ok())
            .unwrap_or(0)
            + 1;
        ctx.stable_put(KEY_QSEQ, mar_wire::to_bytes(&seq).unwrap());
        ctx.stable_put(format!("{Q_PREFIX}{seq:012}"), bytes);
        self.kick(ctx);
    }

    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::ZERO, TAG_KICK);
    }

    fn schedule_item(&mut self, ctx: &mut Ctx<'_>, key: &str, delay: SimDuration) {
        self.processing.insert(key.to_owned());
        self.tag_seq += 1;
        let tag = ITEM_TAG_BASE + self.tag_seq;
        self.tag_map.insert(tag, key.to_owned());
        ctx.set_timer(delay, tag);
    }

    fn schedule_retry(&mut self, ctx: &mut Ctx<'_>, key: &str) {
        let attempts = self.attempts.entry(key.to_owned()).or_insert(0);
        *attempts += 1;
        let exp = (*attempts).min(self.cfg.retry_max_exp);
        let base = self.cfg.retry_base * (1u64 << exp);
        // Randomized backoff desynchronizes no-wait lock retries.
        let jitter = 0.5 + ctx.rng().f64();
        let delay = base.mul_f64(jitter);
        ctx.metrics().inc(keys::STEPS_ABORTED);
        self.schedule_item(ctx, key, delay);
    }

    fn scan_queue(&mut self, ctx: &mut Ctx<'_>) {
        let keys = ctx.stable().keys_with_prefix(Q_PREFIX);
        for key in keys {
            if !self.processing.contains(&key) {
                let delay = self.cfg.step_cost;
                self.schedule_item(ctx, &key, delay);
            }
        }
    }

    fn persist_rms(&mut self, ctx: &mut Ctx<'_>) {
        let snaps = self.rms.snapshot_all().expect("resource snapshots encode");
        for (name, bytes) in snaps {
            ctx.stable_put(format!("{RM_PREFIX}{name}"), bytes);
        }
    }

    // ----- 2PC action execution ---------------------------------------------

    fn run_actions(&mut self, ctx: &mut Ctx<'_>, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::PersistDecision { txn, participants } => {
                    ctx.stable_put(
                        format!("{DECISION_PREFIX}{}", txn.key()),
                        mar_wire::to_bytes(&participants).unwrap(),
                    );
                }
                Action::ForgetDecision { txn } => {
                    ctx.stable_delete(&format!("{DECISION_PREFIX}{}", txn.key()));
                }
                Action::SendPrepare { to, txn, work } => {
                    self.send_tx(ctx, to, TxMsg::Prepare { txn, work });
                }
                Action::SendDecision { to, txn, commit } => {
                    self.send_tx(ctx, to, TxMsg::Decision { txn, commit });
                }
                Action::SendVote { to, txn, ok } => {
                    self.send_tx(ctx, to, TxMsg::Vote { txn, ok });
                }
                Action::SendAck { to, txn } => {
                    self.send_tx(ctx, to, TxMsg::Ack { txn });
                }
                Action::SendQuery { to, txn } => {
                    self.send_tx(ctx, to, TxMsg::Query { txn });
                }
                Action::CommitLocal { txn } => self.commit_local(ctx, txn),
                Action::AbortLocal { txn } => {
                    self.rms.abort_all(txn);
                }
                Action::Resolved { txn, committed } => self.resolved(ctx, txn, committed),
                Action::PersistPrepared {
                    txn,
                    coordinator,
                    work,
                } => {
                    let entry = PreparedEntry { coordinator, work };
                    ctx.stable_put(
                        format!("{PREPARED_PREFIX}{}", txn.key()),
                        mar_wire::to_bytes(&entry).unwrap(),
                    );
                }
                Action::ApplyWork { txn, work } => self.apply_work(ctx, txn, work),
                Action::DiscardWork { txn } => {
                    if self.live_branches.remove(&txn) {
                        self.rms.abort_all(txn);
                    }
                }
                Action::MarkDone { txn } => {
                    ctx.stable_delete(&format!("{PREPARED_PREFIX}{}", txn.key()));
                    ctx.stable_put(format!("{DONE2PC_PREFIX}{}", txn.key()), vec![1]);
                }
            }
        }
    }

    /// Applies the coordinator-local branch. Runs in the same handler that
    /// persisted the decision record, which makes {decision, resource
    /// snapshots, queue updates} atomic with respect to crashes.
    fn commit_local(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        self.rms.commit_all(txn);
        self.persist_rms(ctx);
        let Some(at) = self.active.get_mut(&txn) else {
            return;
        };
        let effects = std::mem::take(&mut at.effects);
        let resident = at.resident.take();
        let queue_key = at.queue_key.clone();
        for key in &effects.delete_queue {
            ctx.stable_delete(key);
        }
        for (key, bytes) in effects.put_queue {
            ctx.stable_put(key, bytes);
        }
        // The stable bytes for the key are down; the volatile twin may now
        // be (re-)installed.
        if let Some(rec) = resident {
            self.resident.insert(queue_key, rec);
        }
        if let Some((home, report)) = effects.report {
            let agent = AgentReport::peek_id(&report).expect("own report decodes");
            ctx.stable_put(format!("{REPORT_PREFIX}{}", agent.0), report.clone());
            if home != ctx.node().0 {
                // Stable outbox first: the report is retransmitted on the
                // retry timer until the home node acks, so the completion
                // event reaches the home mailbox despite crashes and lost
                // messages (delivery is idempotent on the home side).
                let entry = (home, mar_wire::Bytes::from(report.as_slice()));
                ctx.stable_put(
                    format!("{OUTBOX_PREFIX}{}", agent.0),
                    mar_wire::to_bytes(&entry).expect("outbox entry encodes"),
                );
                self.outbox_sent
                    .insert(format!("{OUTBOX_PREFIX}{}", agent.0), ctx.now().as_micros());
                ctx.send(
                    Address::new(NodeId(home), MOLE),
                    MoleMsg::Report {
                        report: report.into(),
                    }
                    .encode(),
                );
            } else {
                self.deliver_report_home(ctx, agent, report);
            }
        }
        for (name, n) in &effects.metrics {
            ctx.metrics().add(name, *n);
        }
        ctx.metrics().inc(keys::TXN_COMMITTED);
    }

    /// Home-node side of report delivery: persists the report under the
    /// agent's id and posts one completion event to the driver mailbox.
    /// Idempotent — a retransmitted report neither duplicates the mailbox
    /// entry nor overwrites the persisted report.
    fn deliver_report_home(
        &mut self,
        ctx: &mut Ctx<'_>,
        agent: mar_core::AgentId,
        report: Vec<u8>,
    ) {
        let report_key = format!("{HOME_REPORT_PREFIX}{}", agent.0);
        if ctx.stable().contains(&report_key) {
            return;
        }
        ctx.stable_put(report_key, report);
        let seq: u64 = ctx
            .stable_get(KEY_MBOXSEQ)
            .and_then(|b| mar_wire::from_slice(b).ok())
            .unwrap_or(0)
            + 1;
        ctx.stable_put(KEY_MBOXSEQ, mar_wire::to_bytes(&seq).unwrap());
        ctx.stable_put(
            format!("{MBOX_PREFIX}{seq:012}"),
            mar_wire::to_bytes(&agent.0).unwrap(),
        );
    }

    /// Retransmits every report still waiting in the stable outbox (ack
    /// lost, home node down, or our own crash between commit and send).
    /// Entries whose last transmission is younger than one retry period are
    /// skipped — their ack is plausibly still in flight, and a gratuitous
    /// duplicate would re-create report artifacts the driver has already
    /// garbage-collected. After a crash the volatile send-time map is
    /// empty, so every surviving entry retransmits immediately.
    fn retransmit_reports(&mut self, ctx: &mut Ctx<'_>) {
        let now_us = ctx.now().as_micros();
        let period_us = self.cfg.tm_retry.as_micros();
        let live = ctx.stable().keys_with_prefix(OUTBOX_PREFIX);
        // Send times for entries that no longer exist in stable storage
        // (acked, or garbage-collected by the driver before the ack
        // arrived) would otherwise accumulate forever.
        self.outbox_sent
            .retain(|key, _| live.binary_search(key).is_ok());
        for key in live {
            if let Some(sent) = self.outbox_sent.get(&key) {
                if now_us.saturating_sub(*sent) < period_us {
                    continue;
                }
            }
            let Some(bytes) = ctx.stable_get(&key).map(<[u8]>::to_vec) else {
                continue;
            };
            let Ok((home, report)) = mar_wire::from_slice::<(u32, mar_wire::Bytes)>(&bytes) else {
                ctx.stable_delete(&key);
                continue;
            };
            ctx.metrics().inc(keys::REPORT_RETRANSMITS);
            self.outbox_sent.insert(key, now_us);
            ctx.send(
                Address::new(NodeId(home), MOLE),
                MoleMsg::Report { report }.encode(),
            );
        }
    }

    fn resolved(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, committed: bool) {
        let Some(at) = self.active.remove(&txn) else {
            return;
        };
        if committed {
            self.processing.remove(&at.queue_key);
            self.attempts.remove(&at.queue_key);
            self.kick(ctx);
        } else {
            ctx.metrics().inc(keys::TXN_ABORTED);
            self.processing.remove(&at.queue_key);
            self.schedule_retry(ctx, &at.queue_key);
        }
    }

    /// Participant-side admission check for a prepare: RCE branches execute
    /// tentatively right now, inside the transaction, holding their locks
    /// until the decision (§4.4.1: the resource compensation entries run
    /// "inside the compensation transaction").
    fn validate_work(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, work: &RemoteWork) -> bool {
        match work.kind.as_str() {
            "enqueue-fwd" | "enqueue-rbk" => true,
            "rce" => match self.execute_rce_list(ctx, txn, &work.payload) {
                Ok(()) => {
                    self.live_branches.insert(txn);
                    true
                }
                Err(_) => {
                    self.rms.abort_all(txn);
                    false
                }
            },
            "batch" => match mar_wire::from_slice::<Vec<RemoteWork>>(&work.payload) {
                Ok(works) => {
                    let ok = works.iter().all(|w| self.validate_work(ctx, txn, w));
                    if !ok {
                        self.rms.abort_all(txn);
                        self.live_branches.remove(&txn);
                    }
                    ok
                }
                Err(_) => false,
            },
            _ => false,
        }
    }

    fn execute_rce_list(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        payload: &[u8],
    ) -> Result<(), CompError> {
        let list: RceList = mar_wire::from_slice(payload).map_err(|e| CompError::BadParams {
            op: "rce-list".to_owned(),
            reason: e.to_string(),
        })?;
        let now = ctx.now();
        let now_us = now.as_micros();
        for entry in &list.ops {
            let mut access = RmAccess::new(&mut self.rms, txn, now);
            self.comps
                .execute(&entry.op, now_us, Some(&mut access), None)?;
            ctx.metrics().inc(keys::COMP_OPS);
        }
        Ok(())
    }

    fn apply_work(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, work: RemoteWork) {
        match work.kind.as_str() {
            "enqueue-fwd" | "enqueue-rbk" => {
                let metric = if work.kind == "enqueue-fwd" {
                    (keys::TRANSFERS_FORWARD, keys::TRANSFER_BYTES_FORWARD)
                } else {
                    (keys::TRANSFERS_ROLLBACK, keys::TRANSFER_BYTES_ROLLBACK)
                };
                ctx.metrics().inc(metric.0);
                ctx.metrics().add(metric.1, work.payload.len() as u64);
                self.enqueue_local(ctx, work.payload.into_vec());
            }
            "batch" => {
                if let Ok(works) = mar_wire::from_slice::<Vec<RemoteWork>>(&work.payload) {
                    for w in works {
                        self.apply_work(ctx, txn, w);
                    }
                }
            }
            "rce" => {
                if self.live_branches.remove(&txn) {
                    // Fast path: the tentative execution from the prepare is
                    // still live; just commit it.
                    self.rms.commit_all(txn);
                } else {
                    // Recovery path: the branch died with a crash; redo the
                    // prepared work, then commit.
                    if let Err(e) = self.execute_rce_list(ctx, txn, &work.payload) {
                        // The decision is commit; a redo failure here is the
                        // classic heuristic-damage corner of 2PC. Record it.
                        ctx.metrics().inc("rollback.redo_failed");
                        ctx.trace("rce-redo-failed", e.to_string());
                    }
                    self.rms.commit_all(txn);
                }
                self.persist_rms(ctx);
            }
            _ => {}
        }
    }

    // ----- item processing --------------------------------------------------

    /// Processes one queue item, preferring the node's volatile resident
    /// record over re-decoding the stable bytes. The cache entry is *taken*
    /// here; only a committing step transaction puts one back, so retries
    /// and aborts always fall back to the stable (pre-step) bytes.
    fn run_item(&mut self, ctx: &mut Ctx<'_>, key: &str) {
        let resident = match self.resident.remove(key) {
            Some(r) => {
                ctx.metrics().inc(keys::RESIDENT_HITS);
                r
            }
            None => {
                let parsed = match ctx.stable_get(key) {
                    // The borrow of the stable slice ends inside this arm:
                    // `from_bytes` copies only the log section.
                    Some(bytes) => ResidentRecord::from_bytes(bytes),
                    None => {
                        self.processing.remove(key);
                        return;
                    }
                };
                ctx.metrics().inc(keys::RESIDENT_MISSES);
                match parsed {
                    Ok(r) => r,
                    Err(e) => {
                        // Unreadable queue item: drop it (cannot even fail
                        // the agent).
                        ctx.trace("bad-queue-item", e.to_string());
                        ctx.stable_delete(key);
                        self.processing.remove(key);
                        return;
                    }
                }
            }
        };
        if self.attempts.get(key).copied().unwrap_or(0) > self.cfg.max_attempts {
            match resident.into_record() {
                Ok(record) => self.fail_agent(ctx, key, record, "retries exhausted".to_owned()),
                Err(e) => {
                    ctx.trace("bad-queue-item", e.to_string());
                    ctx.stable_delete(key);
                    self.processing.remove(key);
                }
            }
            return;
        }
        enum Kind {
            Forward,
            Rollback(mar_core::SavepointId),
            Finalized,
        }
        let kind = match &resident.status {
            AgentStatus::Forward => Kind::Forward,
            AgentStatus::RollingBack { target } => Kind::Rollback(*target),
            AgentStatus::Completed | AgentStatus::Failed(_) => Kind::Finalized,
        };
        let result = match kind {
            Kind::Forward => self.process_forward(ctx, key, resident),
            Kind::Rollback(target) => self.process_rollback(ctx, key, resident, target),
            Kind::Finalized => {
                // Should have been finalized; clean up idempotently.
                ctx.stable_delete(key);
                self.processing.remove(key);
                Ok(())
            }
        };
        match result {
            Ok(()) => {}
            Err(ItemError::Transient(reason)) => {
                ctx.trace("step-retry", reason);
                self.processing.remove(key);
                self.schedule_retry(ctx, key);
            }
            Err(ItemError::Permanent(reason)) => {
                // The working copy was consumed by the failed attempt; the
                // pristine pre-step record is still in stable storage.
                match stable_record(ctx, key) {
                    Some(record) => self.fail_agent(ctx, key, record, reason),
                    None => {
                        ctx.trace("bad-queue-item", reason);
                        ctx.stable_delete(key);
                        self.processing.remove(key);
                    }
                }
            }
        }
    }

    fn fail_agent(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        mut record: AgentRecord,
        reason: String,
    ) {
        let txn = self.alloc_txn(ctx);
        record.status = AgentStatus::Failed(reason.clone());
        let home = record.home;
        let report = AgentReport {
            id: record.id,
            outcome: ReportOutcome::Failed(reason),
            finished_at_us: ctx.now().as_micros(),
            steps_committed: record.step_seq,
            finished_node: ctx.node().0,
            // The record moves into its own report — nothing is cloned.
            record,
        };
        let effects = Effects {
            delete_queue: vec![key.to_owned()],
            put_queue: Vec::new(),
            report: Some((home, report.encode())),
            metrics: vec![(keys::AGENT_FAILED, 1)],
        };
        self.active.insert(
            txn,
            ActiveTxn {
                queue_key: key.to_owned(),
                effects,
                resident: None,
            },
        );
        let actions = self.co.commit_request(txn, Vec::new());
        self.run_actions(ctx, actions);
    }

    /// Walks the cursor to the next step, constituting savepoints for
    /// entered sub-itineraries and truncating the log for completed ones.
    ///
    /// Runs on the resident record: the cursor advances against the record's
    /// own itinerary (no clone), savepoint entries are *appended* without
    /// touching the sealed log prefix, and only leaving a sub-itinerary —
    /// which removes savepoint entries — materializes the log.
    fn advance_and_book(
        &mut self,
        ctx: &mut Ctx<'_>,
        rec: &mut ResidentRecord,
    ) -> Result<NextHop, ItemError> {
        use mar_itinerary::CursorEvent;
        let itinerary = rec
            .itinerary
            .tree()
            .map_err(|e| ItemError::Permanent(format!("itinerary: {e}")))?;
        let events = rec
            .cursor
            .advance(&itinerary)
            .map_err(|e| ItemError::Permanent(format!("cursor: {e}")))?;
        for ev in &events {
            match ev {
                CursorEvent::EnterSub { id, .. } => {
                    rec.table.on_enter_sub(
                        id,
                        &mut rec.data,
                        &rec.cursor,
                        rec.log.for_append(),
                        rec.logging_mode,
                    );
                }
                CursorEvent::LeaveSub { id, top_level, .. } => {
                    if *top_level {
                        // Whole-log discard: decoding a sealed log only to
                        // clear it would waste the entire lazy win on the
                        // itinerary's last event. Run the table bookkeeping
                        // against an empty log and drop the sealed bytes,
                        // accounting the freed size from the seal.
                        let freed = rec.log.size_bytes();
                        let mut discarded = mar_core::RollbackLog::new();
                        rec.table
                            .on_leave_sub(id, true, &mut rec.data, &mut discarded)
                            .map_err(|e| ItemError::Permanent(format!("savepoints: {e}")))?;
                        rec.log = mar_core::ResidentLog::Full(discarded);
                        ctx.metrics().inc(keys::LOG_DISCARDS);
                        ctx.metrics().add(keys::LOG_DISCARD_BYTES, freed as u64);
                        continue;
                    }
                    let log = rec
                        .log
                        .materialize()
                        .map_err(|e| ItemError::Permanent(format!("log: {e}")))?;
                    let outcome = rec
                        .table
                        .on_leave_sub(id, false, &mut rec.data, log)
                        .map_err(|e| ItemError::Permanent(format!("savepoints: {e}")))?;
                    match outcome {
                        mar_core::LeaveOutcome::LogDiscarded { freed_bytes } => {
                            ctx.metrics().inc(keys::LOG_DISCARDS);
                            ctx.metrics()
                                .add(keys::LOG_DISCARD_BYTES, freed_bytes as u64);
                        }
                        mar_core::LeaveOutcome::SavepointsRemoved(n) => {
                            ctx.metrics().add(keys::SAVEPOINTS_REMOVED, n as u64);
                        }
                    }
                }
                CursorEvent::Step { .. } => {}
                CursorEvent::Finished => {}
            }
        }
        match events.last() {
            Some(CursorEvent::Step { loc, .. }) => Ok(NextHop::Step(loc.primary().0)),
            Some(CursorEvent::Finished) => Ok(NextHop::Finished),
            other => Err(ItemError::Permanent(format!(
                "cursor advance ended unexpectedly: {other:?}"
            ))),
        }
    }

    /// Builds the commit effects of a completed agent. Consumes the record:
    /// it moves into its own report (materializing the log — the report
    /// carries the full final record).
    fn finalize_effects(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        rec: ResidentRecord,
        extra_metrics: Vec<(&'static str, u64)>,
    ) -> Result<Effects, ItemError> {
        let record = rec
            .into_record()
            .map_err(|e| ItemError::Permanent(e.to_string()))?;
        let home = record.home;
        let report = AgentReport {
            id: record.id,
            outcome: ReportOutcome::Completed,
            finished_at_us: ctx.now().as_micros(),
            steps_committed: record.step_seq,
            finished_node: ctx.node().0,
            record,
        };
        let mut metrics = vec![(keys::AGENT_COMPLETED, 1)];
        metrics.extend(extra_metrics);
        Ok(Effects {
            delete_queue: vec![key.to_owned()],
            put_queue: Vec::new(),
            report: Some((home, report.encode())),
            metrics,
        })
    }

    fn commit_with(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        key: &str,
        effects: Effects,
        branches: Vec<(NodeId, RemoteWork)>,
    ) {
        self.commit_with_resident(ctx, txn, key, effects, branches, None);
    }

    /// Like [`commit_with`](Self::commit_with), additionally carrying the
    /// post-step resident record to install in the volatile cache when (and
    /// only when) the transaction commits.
    fn commit_with_resident(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        key: &str,
        effects: Effects,
        branches: Vec<(NodeId, RemoteWork)>,
        resident: Option<ResidentRecord>,
    ) {
        // 2PC tracks one branch per participant: multiple works for the
        // same node (e.g. an RCE list plus the agent transfer of a
        // compensation round) merge into a single "batch" work item.
        let mut grouped: Vec<(NodeId, Vec<RemoteWork>)> = Vec::new();
        for (node, work) in branches {
            match grouped.iter_mut().find(|(n, _)| *n == node) {
                Some((_, works)) => works.push(work),
                None => grouped.push((node, vec![work])),
            }
        }
        let branches: Vec<(NodeId, RemoteWork)> = grouped
            .into_iter()
            .map(|(node, mut works)| {
                if works.len() == 1 {
                    (node, works.pop().expect("one work"))
                } else {
                    let payload = mar_wire::to_bytes(&works).expect("batch encodes");
                    (node, RemoteWork::new("batch", payload))
                }
            })
            .collect();
        self.active.insert(
            txn,
            ActiveTxn {
                queue_key: key.to_owned(),
                effects,
                resident,
            },
        );
        let actions = self.co.commit_request(txn, branches);
        self.run_actions(ctx, actions);
    }

    /// Serializes a record that is about to cross the network, compacting
    /// its rollback log first when the runtime is configured to
    /// (`MoleCfg::compact_on_transfer`). Compaction happens *inside* the
    /// transaction that ships the record: an abort simply re-reads the
    /// uncompacted record from stable storage and re-plans, and the pass is
    /// idempotent, so crash-retries are harmless.
    ///
    /// The pass is skipped when it cannot help: a log with no
    /// redundancy-introducing mutation since its last pass
    /// ([`mar_core::RollbackLog::is_dirty`]), or one whose savepoint
    /// payload is too small for the wire savings to pay for the CPU time
    /// under [`MoleCfg::cost_model`] (ROADMAP "Compaction policy").
    fn encode_for_transfer(
        &self,
        ctx: &mut Ctx<'_>,
        rec: &mut ResidentRecord,
    ) -> Result<Vec<u8>, ItemError> {
        if self.cfg.compact_on_transfer {
            // Cheap pre-gate on the *total* log size, available without
            // decoding a sealed log: savepoint payloads are a subset of the
            // log and `compaction_pays` is monotone in the byte count, so a
            // total that cannot pay proves the precise check could not
            // either — the steady-state small-log case ships without ever
            // materializing.
            if !self
                .cfg
                .cost_model
                .compaction_pays(rec.log.size_bytes(), COMPACTION_CPU_US_PER_KB)
            {
                ctx.metrics().inc(keys::LOG_COMPACTIONS_SKIPPED);
            } else {
                let log = rec
                    .log
                    .materialize()
                    .map_err(|e| ItemError::Permanent(e.to_string()))?;
                // Savepoint payloads are the only bytes a pass can reclaim;
                // short-circuiting keeps the stats read off the clean path.
                if !log.is_dirty()
                    || !self
                        .cfg
                        .cost_model
                        .compaction_pays(log.stats().savepoint_bytes, COMPACTION_CPU_US_PER_KB)
                {
                    ctx.metrics().inc(keys::LOG_COMPACTIONS_SKIPPED);
                } else {
                    let report = rec
                        .compact_log()
                        .map_err(|e| ItemError::Permanent(e.to_string()))?;
                    if report.changed() {
                        ctx.metrics().inc(keys::LOG_COMPACTIONS);
                        ctx.metrics().add(
                            keys::LOG_COMPACTION_SAVED_BYTES,
                            report.saved_bytes() as u64,
                        );
                    }
                }
            }
        }
        rec.to_transfer_bytes()
            .map_err(|e| ItemError::Permanent(e.to_string()))
    }

    /// One forward step on the resident record. The record is mutated in
    /// place — no working clone: a committing transaction persists (and
    /// possibly caches) the mutated record, every failure path drops it and
    /// falls back to the pristine bytes still sitting in the stable queue.
    fn process_forward(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        mut rec: ResidentRecord,
    ) -> Result<(), ItemError> {
        let txn = self.alloc_txn(ctx);
        let itinerary = rec
            .itinerary
            .tree()
            .map_err(|e| ItemError::Permanent(format!("itinerary: {e}")))?;

        // A fresh launch (or an explicit-savepoint restore) has no current
        // step yet: advance first.
        if !rec.cursor.is_finished() && rec.cursor.current_step(&itinerary).is_none() {
            match self.advance_and_book(ctx, &mut rec)? {
                NextHop::Finished => {
                    rec.status = AgentStatus::Completed;
                    let effects = self.finalize_effects(ctx, key, rec, vec![])?;
                    self.commit_with(ctx, txn, key, effects, Vec::new());
                    return Ok(());
                }
                NextHop::Step(_) => {}
            }
        } else if rec.cursor.is_finished() {
            rec.status = AgentStatus::Completed;
            let effects = self.finalize_effects(ctx, key, rec, vec![])?;
            self.commit_with(ctx, txn, key, effects, Vec::new());
            return Ok(());
        }

        let (method, primary, alternatives) = {
            let step = rec
                .cursor
                .current_step(&itinerary)
                .expect("step selected above");
            (
                step.method.clone(),
                step.loc.primary().0,
                step.loc
                    .alternatives()
                    .iter()
                    .map(|l| l.0)
                    .collect::<Vec<u32>>(),
            )
        };

        // Misplaced agent (e.g. after a restore): forward it to the step's
        // node without executing anything.
        if primary != ctx.node().0 {
            let bytes = self.encode_for_transfer(ctx, &mut rec)?;
            let effects = Effects {
                delete_queue: vec![key.to_owned()],
                ..Effects::default()
            };
            let work = RemoteWork::new("enqueue-fwd", bytes);
            self.commit_with(ctx, txn, key, effects, vec![(NodeId(primary), work)]);
            return Ok(());
        }

        // Execute the step method inside the step transaction.
        let behavior = self.behaviors.get(&rec.agent_type).ok_or_else(|| {
            ItemError::Permanent(format!("unknown agent type {:?}", rec.agent_type))
        })?;
        let comps = self.comps.clone();
        let decision = {
            let mut sctx = StepCtx::new(
                txn,
                ctx.now(),
                ctx.node(),
                rec.id,
                rec.step_seq,
                &mut self.rms,
                &mut rec.data,
                ctx.rng(),
                &comps,
            );
            match behavior.step(&method, &mut sctx) {
                Ok(d) => {
                    let (pending, sp_requested, memos) = sctx.into_effects();
                    (d, pending, sp_requested, memos)
                }
                Err(e) => {
                    self.rms.abort_all(txn);
                    return if e.is_transient() {
                        Err(ItemError::Transient(e.to_string()))
                    } else {
                        Err(ItemError::Permanent(e.to_string()))
                    };
                }
            }
        };
        let (decision, pending_comps, savepoint_requested, rollback_memos) = decision;

        match decision {
            StepDecision::Fail(reason) => {
                self.rms.abort_all(txn);
                Err(ItemError::Permanent(reason))
            }
            StepDecision::Rollback(scope) => {
                // Fig. 4a: abort the step transaction first. The rollback
                // starts from the *pristine* record (the aborted step's
                // data-space writes must not survive) — re-read it from the
                // stable queue; this is the cold path.
                self.rms.abort_all(txn);
                drop(rec);
                let original = stable_record(ctx, key)
                    .ok_or_else(|| ItemError::Permanent("queue item vanished".to_owned()))?;
                self.start_rollback_txn(ctx, key, original, scope, rollback_memos)
            }
            StepDecision::Continue => {
                // Log the step's entries (§4.2): BOS, OEs in logged order,
                // EOS with the mixed flag and alternative nodes — appended
                // behind the sealed log prefix, which stays encoded.
                let step_seq = rec.step_seq;
                rec.log.for_append().append_step(
                    ctx.node().0,
                    step_seq,
                    &method,
                    pending_comps,
                    alternatives,
                );
                rec.cursor
                    .step_done()
                    .map_err(|e| ItemError::Permanent(format!("cursor: {e}")))?;
                rec.step_seq += 1;
                rec.table.on_step_committed();
                if savepoint_requested {
                    rec.table.explicit_savepoint(
                        &mut rec.data,
                        &rec.cursor,
                        rec.log.for_append(),
                        rec.logging_mode,
                    );
                }
                // Advance to the next step and ship the agent there.
                let mut effects = Effects {
                    delete_queue: vec![key.to_owned()],
                    metrics: vec![(keys::STEPS_COMMITTED, 1)],
                    ..Effects::default()
                };
                match self.advance_and_book(ctx, &mut rec)? {
                    NextHop::Finished => {
                        rec.status = AgentStatus::Completed;
                        let fx =
                            self.finalize_effects(ctx, key, rec, vec![(keys::STEPS_COMMITTED, 1)])?;
                        self.commit_with(ctx, txn, key, fx, Vec::new());
                        Ok(())
                    }
                    NextHop::Step(next_node) => {
                        if next_node == ctx.node().0 {
                            // Next step is local: the agent still goes through
                            // stable storage between steps (§2) — spliced, so
                            // the write is O(delta) — but nothing crosses the
                            // wire (no compaction), and the decoded record
                            // stays resident for the next step.
                            let bytes = rec
                                .to_bytes()
                                .map_err(|e| ItemError::Permanent(e.to_string()))?;
                            effects.put_queue.push((key.to_owned(), bytes));
                            let resident = self.cfg.resident_cache.then_some(rec);
                            self.commit_with_resident(ctx, txn, key, effects, Vec::new(), resident);
                        } else {
                            let bytes = self.encode_for_transfer(ctx, &mut rec)?;
                            let work = RemoteWork::new("enqueue-fwd", bytes);
                            self.commit_with(
                                ctx,
                                txn,
                                key,
                                effects,
                                vec![(NodeId(next_node), work)],
                            );
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    /// Fig. 4a / Fig. 5a: resolve the scope, mark the agent as rolling
    /// back, and route it to the first compensation destination. Consumes
    /// the pristine record.
    fn start_rollback_txn(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        record: AgentRecord,
        scope: mar_core::RollbackScope,
        memos: Vec<(String, mar_wire::Value)>,
    ) -> Result<(), ItemError> {
        let mut rb = record;
        // Rollback invocation parameters survive as (uncompensated) weakly
        // reversible state — the aborting step's own writes do not.
        for (k, v) in memos {
            rb.data.set_wro(k, v);
        }
        let target = rb
            .table
            .resolve(scope)
            .map_err(|e| ItemError::Permanent(format!("rollback scope: {e}")))?;
        rb.status = AgentStatus::RollingBack { target };
        let plan = start_rollback(&rb, target)
            .map_err(|e| ItemError::Permanent(format!("rollback: {e}")))?;
        let txn = self.alloc_txn(ctx);
        let mut effects = Effects {
            delete_queue: vec![key.to_owned()],
            metrics: vec![(keys::ROLLBACK_STARTED, 1)],
            ..Effects::default()
        };
        let mut rb =
            ResidentRecord::from_record(rb).map_err(|e| ItemError::Permanent(e.to_string()))?;
        match plan {
            StartPlan::AlreadyAtTarget(restore) => {
                rb.apply_restore(*restore);
                effects.metrics.push((keys::ROLLBACK_COMPLETED, 1));
                self.route_record(ctx, txn, key, rb, effects, "enqueue-fwd")
            }
            StartPlan::Go(Destination::Local) => {
                let bytes = rb
                    .to_bytes()
                    .map_err(|e| ItemError::Permanent(e.to_string()))?;
                effects.put_queue.push((key.to_owned(), bytes));
                let resident = self.cfg.resident_cache.then_some(rb);
                self.commit_with_resident(ctx, txn, key, effects, Vec::new(), resident);
                Ok(())
            }
            StartPlan::Go(Destination::Node(n)) => {
                let bytes = self.encode_for_transfer(ctx, &mut rb)?;
                let work = RemoteWork::new("enqueue-rbk", bytes);
                self.commit_with(ctx, txn, key, effects, vec![(NodeId(n), work)]);
                Ok(())
            }
        }
    }

    /// Routes an updated record to wherever its current step runs (local
    /// re-enqueue or remote transfer), as part of transaction `txn`. Local
    /// re-enqueues keep the record resident.
    fn route_record(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        key: &str,
        mut rec: ResidentRecord,
        mut effects: Effects,
        kind: &str,
    ) -> Result<(), ItemError> {
        let itinerary = rec
            .itinerary
            .tree()
            .map_err(|e| ItemError::Permanent(format!("itinerary: {e}")))?;
        let dest = rec
            .cursor
            .current_step(&itinerary)
            .map(|s| s.loc.primary().0);
        match dest {
            Some(n) if n != ctx.node().0 => {
                let bytes = self.encode_for_transfer(ctx, &mut rec)?;
                let work = RemoteWork::new(kind, bytes);
                self.commit_with(ctx, txn, key, effects, vec![(NodeId(n), work)]);
            }
            _ => {
                // Local (or no current step yet: next processing advances).
                let bytes = rec
                    .to_bytes()
                    .map_err(|e| ItemError::Permanent(e.to_string()))?;
                effects.put_queue.push((key.to_owned(), bytes));
                let resident = self.cfg.resident_cache.then_some(rec);
                self.commit_with_resident(ctx, txn, key, effects, Vec::new(), resident);
            }
        }
        Ok(())
    }

    /// One batched compensation transaction: a maximal same-destination run
    /// of Fig. 4b / Fig. 5b rounds fused into a single commit (one round per
    /// transaction when batching is disabled).
    fn process_rollback(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        resident: ResidentRecord,
        target: mar_core::SavepointId,
    ) -> Result<(), ItemError> {
        // Rollback needs the log's entries: materialize (a resident record
        // cached by a previous local round is already materialized).
        let mut rb = resident
            .into_record()
            .map_err(|e| ItemError::Permanent(e.to_string()))?;
        // Sizes of the unplanned record, for the ship-vs-migrate pricing
        // below (planning pops log entries).
        let pristine_agent_bytes = rb.encoded_size_without_log();
        let pristine_log_bytes = rb.log.size_bytes();
        let txn = self.alloc_txn(ctx);
        let batch = if self.cfg.batch_rollback {
            plan_batch(&mut rb, target)
        } else {
            plan_single(&mut rb, target)
        }
        .map_err(|e| ItemError::Permanent(format!("rollback: {e}")))?;

        // RCEs whose resource node is *this* node run inside the local
        // transaction directly — no point 2PC-ing a branch to ourselves.
        let fold_rces_local = batch.step_node() == Some(ctx.node().0);

        // The batch's fused RCE list, encoded once: it prices the
        // ship-vs-migrate decision below and, if shipping wins, becomes the
        // 2PC branch payload as is.
        let rce_payload = (!fold_rces_local && batch.has_remote_rces()).then(|| {
            let list = RceList {
                agent: rb.id,
                step_seq: batch.steps[0].step_seq,
                ops: batch.remote_rces().cloned().collect(),
            };
            mar_wire::to_bytes(&list).expect("rce list encodes")
        });

        // Cost-model routing: before executing anything, check whether
        // migrating the agent to the resource node beats shipping the fused
        // RCE list. If it does, ship the *unplanned* record there instead —
        // the batch re-plans at the destination, where its RCEs are local.
        if let Some(payload) = &rce_payload {
            if self.cfg.rollback_routing == RollbackRouting::CostModel
                && !batch.mixed()
                && self.cfg.cost_model.migrate_for_batch(
                    pristine_agent_bytes,
                    pristine_log_bytes,
                    payload.len(),
                )
            {
                // Ship the *unplanned* record (the batch re-plans at the
                // destination): re-read it from the stable queue.
                let mut fresh = stable_resident(ctx, key)
                    .ok_or_else(|| ItemError::Permanent("queue item vanished".to_owned()))?;
                let bytes = self.encode_for_transfer(ctx, &mut fresh)?;
                let effects = Effects {
                    delete_queue: vec![key.to_owned()],
                    metrics: vec![(keys::ROLLBACK_COST_MIGRATIONS, 1)],
                    ..Effects::default()
                };
                let node = batch.step_node().expect("has_remote_rces implies steps");
                let work = RemoteWork::new("enqueue-rbk", bytes);
                self.commit_with(ctx, txn, key, effects, vec![(NodeId(node), work)]);
                return Ok(());
            }
        }

        // Execute the local operations (everything in basic/mixed batches,
        // the agent compensation entries in split batches, plus the RCEs of
        // batches whose resource node is this node), newest step first.
        let now = ctx.now();
        let now_us = now.as_micros();
        let folded = fold_rces_local
            .then(|| batch.remote_rces())
            .into_iter()
            .flatten();
        for entry in batch.local_ops().chain(folded) {
            let result = {
                let mut access = RmAccess::new(&mut self.rms, txn, now);
                self.comps.execute(
                    &entry.op,
                    now_us,
                    Some(&mut access),
                    Some(rb.data.wro_map_mut()),
                )
            };
            match result {
                Ok(()) => ctx.metrics().inc(keys::COMP_OPS),
                Err(CompError::Failed {
                    retryable: true,
                    reason,
                    ..
                }) => {
                    self.rms.abort_all(txn);
                    ctx.metrics().inc(keys::COMP_TRANSIENT);
                    return Err(ItemError::Transient(reason));
                }
                Err(e) => {
                    self.rms.abort_all(txn);
                    ctx.metrics().inc(keys::COMP_PERMANENT);
                    return Err(ItemError::Permanent(e.to_string()));
                }
            }
        }

        // Ship the fused resource compensation entries of the whole batch
        // to its node (optimized mode) as ONE list in ONE 2PC branch, to
        // run concurrently inside the same transaction.
        let mut branches: Vec<(NodeId, RemoteWork)> = Vec::new();
        if let Some(payload) = rce_payload {
            ctx.metrics().inc(keys::RCE_SHIPPED);
            ctx.metrics().add(keys::RCE_BYTES, payload.len() as u64);
            let node = batch.step_node().expect("has_remote_rces implies steps");
            branches.push((NodeId(node), RemoteWork::new("rce", payload)));
        }

        // Round accounting stays per compensated step (an op-less
        // savepoints-only batch still counts as the one round it was), so
        // batched and unbatched runs report identical `rollback.rounds`;
        // the transaction savings show up in `batched_rounds`/`rounds_saved`.
        let rounds = batch.rounds_fused().max(1) as u64;
        let mut effects = Effects {
            delete_queue: vec![key.to_owned()],
            metrics: vec![
                (keys::ROLLBACK_ROUNDS, rounds),
                (keys::ROLLBACK_BATCHED_ROUNDS, 1),
                (keys::ROLLBACK_ROUNDS_SAVED, rounds - 1),
            ],
            ..Effects::default()
        };
        let mut rb =
            ResidentRecord::from_record(rb).map_err(|e| ItemError::Permanent(e.to_string()))?;
        match batch.after {
            AfterRound::Reached(restore) => {
                rb.apply_restore(*restore);
                effects.metrics.push((keys::ROLLBACK_COMPLETED, 1));
                let itinerary = rb
                    .itinerary
                    .tree()
                    .map_err(|e| ItemError::Permanent(format!("itinerary: {e}")))?;
                let dest = rb
                    .cursor
                    .current_step(&itinerary)
                    .map(|s| s.loc.primary().0);
                match dest {
                    Some(n) if n != ctx.node().0 => {
                        let bytes = self.encode_for_transfer(ctx, &mut rb)?;
                        branches.push((NodeId(n), RemoteWork::new("enqueue-fwd", bytes)));
                        self.commit_with(ctx, txn, key, effects, branches);
                    }
                    _ => {
                        let bytes = rb
                            .to_bytes()
                            .map_err(|e| ItemError::Permanent(e.to_string()))?;
                        effects.put_queue.push((key.to_owned(), bytes));
                        let resident = self.cfg.resident_cache.then_some(rb);
                        self.commit_with_resident(ctx, txn, key, effects, branches, resident);
                    }
                }
                Ok(())
            }
            AfterRound::Continue(Destination::Local) => {
                let bytes = rb
                    .to_bytes()
                    .map_err(|e| ItemError::Permanent(e.to_string()))?;
                effects.put_queue.push((key.to_owned(), bytes));
                let resident = self.cfg.resident_cache.then_some(rb);
                self.commit_with_resident(ctx, txn, key, effects, branches, resident);
                Ok(())
            }
            AfterRound::Continue(Destination::Node(n)) => {
                let bytes = self.encode_for_transfer(ctx, &mut rb)?;
                branches.push((NodeId(n), RemoteWork::new("enqueue-rbk", bytes)));
                self.commit_with(ctx, txn, key, effects, branches);
                Ok(())
            }
        }
    }
}

impl Service for MoleService {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Address, payload: &[u8]) {
        let msg = match MoleMsg::decode(payload) {
            Ok(m) => m,
            Err(e) => {
                ctx.trace("bad-mole-msg", e.to_string());
                return;
            }
        };
        match msg {
            MoleMsg::Launch { record } => {
                ctx.metrics().inc(keys::AGENT_LAUNCHED);
                self.enqueue_local(ctx, record.into_vec());
            }
            MoleMsg::Report { report } => {
                if let Ok(agent) = AgentReport::peek_id(&report) {
                    self.deliver_report_home(ctx, agent, report.into_vec());
                    if from.node != NodeId::EXTERNAL {
                        ctx.send(
                            Address::new(from.node, MOLE),
                            MoleMsg::ReportAck { agent }.encode(),
                        );
                    }
                }
            }
            MoleMsg::ReportAck { agent } => {
                let key = format!("{OUTBOX_PREFIX}{}", agent.0);
                ctx.stable_delete(&key);
                self.outbox_sent.remove(&key);
            }
            MoleMsg::Tx { from, msg } => {
                let actions = match msg {
                    TxMsg::Prepare { txn, work } => {
                        // A retransmitted prepare for a branch this
                        // participant already holds (or settled) must not
                        // re-execute the work — a second tentative RCE run
                        // under the same transaction would double-apply the
                        // compensations at commit. `on_prepare` just
                        // re-sends the vote for known transactions.
                        if self.pa.is_known(txn) {
                            self.pa.on_prepare(txn, from, work, true)
                        } else {
                            let accept = self.validate_work(ctx, txn, &work);
                            self.pa.on_prepare(txn, from, work, accept)
                        }
                    }
                    TxMsg::Vote { txn, ok } => self.co.on_vote(txn, from, ok),
                    TxMsg::Decision { txn, commit } => self.pa.on_decision(txn, commit, from),
                    TxMsg::Ack { txn } => self.co.on_ack(txn, from),
                    TxMsg::Query { txn } => self.co.on_query(txn, from),
                };
                self.run_actions(ctx, actions);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TAG_RETRY_2PC => {
                let mut actions = self.co.on_retry();
                actions.extend(self.pa.on_retry());
                self.run_actions(ctx, actions);
                self.retransmit_reports(ctx);
                ctx.set_timer(self.cfg.tm_retry, TAG_RETRY_2PC);
            }
            TAG_KICK => self.scan_queue(ctx),
            t => {
                if let Some(key) = self.tag_map.remove(&t) {
                    self.run_item(ctx, &key);
                }
            }
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // A crash rebuilds the service from its factory, so the resident
        // cache is naturally empty here; clear defensively anyway — the
        // crash contract is that recovery re-decodes queue items from
        // stable bytes only.
        self.resident.clear();
        // Transaction id allocator: never reuse ids from before the crash.
        let floor: u64 = ctx
            .stable_get(KEY_TXNSEQ)
            .and_then(|b| mar_wire::from_slice(b).ok())
            .unwrap_or(0);
        let mut idgen = TxnIdGen::new(ctx.node(), 0);
        idgen.bump_past(floor);
        self.idgen = Some(idgen);

        // Committed resource state.
        for key in ctx.stable().keys_with_prefix(RM_PREFIX) {
            let name = key[RM_PREFIX.len()..].to_owned();
            if let Some(bytes) = ctx.stable_get(&key).map(<[u8]>::to_vec) {
                let _ = self.rms.restore_one(&name, &bytes);
            }
        }

        // Coordinator: finish sending persisted commit decisions.
        let mut decisions = Vec::new();
        for key in ctx.stable().keys_with_prefix(DECISION_PREFIX) {
            if let Some(bytes) = ctx.stable_get(&key) {
                if let Ok(participants) = mar_wire::from_slice::<Vec<NodeId>>(bytes) {
                    let txn = parse_txn_key(&key[DECISION_PREFIX.len()..]);
                    decisions.push((txn, participants));
                }
            }
        }
        let co_actions = self.co.recover(decisions);

        // Participant: reload prepared/done state and query outcomes.
        let mut prepared = Vec::new();
        for key in ctx.stable().keys_with_prefix(PREPARED_PREFIX) {
            if let Some(bytes) = ctx.stable_get(&key) {
                if let Ok(entry) = mar_wire::from_slice::<PreparedEntry>(bytes) {
                    let txn = parse_txn_key(&key[PREPARED_PREFIX.len()..]);
                    prepared.push((txn, entry));
                }
            }
        }
        let done = ctx
            .stable()
            .keys_with_prefix(DONE2PC_PREFIX)
            .iter()
            .map(|k| parse_txn_key(&k[DONE2PC_PREFIX.len()..]))
            .collect();
        self.pa.recover(prepared, done);
        let pa_actions = self.pa.on_retry();

        self.run_actions(ctx, co_actions);
        self.run_actions(ctx, pa_actions);
        ctx.set_timer(self.cfg.tm_retry, TAG_RETRY_2PC);
        self.kick(ctx);
    }
}

/// Re-reads the pristine record from the stable queue — the cold paths'
/// (failure, rollback start, cost migration) source of truth.
fn stable_record(ctx: &mut Ctx<'_>, key: &str) -> Option<AgentRecord> {
    stable_resident(ctx, key)?.into_record().ok()
}

/// Like [`stable_record`] but stays in resident (lazy) form.
fn stable_resident(ctx: &mut Ctx<'_>, key: &str) -> Option<ResidentRecord> {
    ResidentRecord::from_bytes(ctx.stable_get(key)?).ok()
}

fn parse_txn_key(key: &str) -> TxnId {
    let (node, seq) = key.split_once('.').unwrap_or(("0", "0"));
    TxnId::new(NodeId(node.parse().unwrap_or(0)), seq.parse().unwrap_or(0))
}
