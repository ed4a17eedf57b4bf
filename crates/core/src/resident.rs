//! The resident-record step path: lazy log decode and O(delta) encoding.
//!
//! The step-commit protocol (§4.4) makes the agent record durable after
//! every step, and the rollback log is usually the dominant share of the
//! record's bytes. Forward execution, however, only ever *appends* to the
//! log — the entries themselves are needed exclusively on rollback,
//! migration-time compaction, and savepoint removal. This module exploits
//! that:
//!
//! * [`LazyRecord`] is a borrowed view of a serialized record that decodes
//!   every field *except* the log eagerly; the `(SP | BOS OE* EOS)*` log
//!   section is structurally validated ([`mar_wire::skip_value`]) but kept
//!   as a byte slice.
//! * [`ResidentRecord`] is the owned working form the platform's step path
//!   runs on. Its [`ResidentLog`] keeps the log *sealed* — the retained
//!   encoded bytes plus a small [`RollbackLog`] of entries appended since —
//!   and only materializes a full [`RollbackLog`] when an operation
//!   actually needs entries.
//! * [`ResidentRecord::to_bytes`] splice-encodes: the retained log bytes
//!   are copied verbatim, freshly appended entries are encoded once (their
//!   cached sizes from the log's `Stored` wrappers delimit the spliced
//!   span), and everything else is re-encoded normally. The output is
//!   **byte-identical** to [`AgentRecord::to_bytes`] of the equivalent
//!   record — property-tested in `crates/core/tests/resident_record_props.rs`
//!   — so readers, stable storage, and the wire format are unchanged.
//!
//! Durability cost per step is thereby proportional to what changed (data
//! space, cursor, the step's new log entries), not to what exists (the
//! whole log).

use std::sync::{Arc, OnceLock};

use mar_itinerary::{Cursor, Itinerary};

use crate::data::DataSpace;
use crate::error::CoreError;
use crate::log::{LogEntry, LoggingMode, RollbackLog};
use crate::planner::RollbackMode;
use crate::record::{AgentId, AgentRecord, AgentStatus};
use crate::savepoint::SavepointTable;

/// Number of fields in the serialized [`AgentRecord`] layout.
const RECORD_FIELDS: u64 = 12;
/// Number of fields in the serialized [`RollbackLog`] layout
/// (`entries`, `bytes`).
const LOG_FIELDS: u64 = 2;
/// Number of fields in the serialized [`Itinerary`] layout
/// (`id`, `entries`, `order`).
const ITINERARY_FIELDS: u64 = 3;

/// The record's itinerary as a wire span: the exact encoded bytes
/// (shared) and a decode-once tree.
///
/// The itinerary never changes after launch, so the slot treats its
/// encoding as the source of truth: parsing a record captures the span
/// without decoding it, encoding splices the span back verbatim, and the
/// decoded tree is built at most once per slot *family* — clones share
/// the [`OnceLock`], so every clone of one slot sees the same
/// `Arc<Itinerary>`.
#[derive(Debug, Clone)]
pub struct ItinerarySlot {
    bytes: Arc<[u8]>,
    tree: Arc<OnceLock<Arc<Itinerary>>>,
}

impl PartialEq for ItinerarySlot {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl ItinerarySlot {
    /// Wraps the exact wire encoding of an inline itinerary.
    ///
    /// # Errors
    ///
    /// Rejects spans that are not exactly one value framed as a 3-field
    /// itinerary: other arities, truncated spans, and trailing bytes.
    pub fn from_span(span: &[u8]) -> Result<ItinerarySlot, CoreError> {
        let (slot, len) = ItinerarySlot::from_prefix(span)?;
        if len != span.len() {
            return Err(mar_wire::WireError::TrailingBytes(span.len() - len).into());
        }
        Ok(slot)
    }

    /// Captures the itinerary encoded at the start of `bytes` without
    /// decoding it, returning the slot and the span length.
    fn from_prefix(bytes: &[u8]) -> Result<(ItinerarySlot, usize), CoreError> {
        let (fields, _) = mar_wire::read_seq_header(bytes)?;
        if fields != ITINERARY_FIELDS {
            return Err(CoreError::CorruptLog(format!(
                "itinerary span has {fields} fields, expected {ITINERARY_FIELDS}"
            )));
        }
        let len = mar_wire::skip_value(bytes)?;
        let slot = ItinerarySlot {
            bytes: bytes[..len].into(),
            tree: Arc::new(OnceLock::new()),
        };
        Ok((slot, len))
    }

    /// Builds a slot from a decoded tree (launch path), pre-seeding the
    /// decode cache.
    ///
    /// # Errors
    ///
    /// Codec errors from encoding the tree.
    pub fn from_tree(itinerary: Itinerary) -> Result<ItinerarySlot, CoreError> {
        let bytes = mar_wire::to_bytes(&itinerary)?;
        let tree = Arc::new(OnceLock::new());
        let _ = tree.set(Arc::new(itinerary));
        Ok(ItinerarySlot {
            bytes: bytes.into(),
            tree,
        })
    }

    /// The exact wire encoding of the itinerary.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether the tree has already been decoded (by this slot or any
    /// clone of it).
    pub fn is_decoded(&self) -> bool {
        self.tree.get().is_some()
    }

    /// The decoded itinerary, shared; decodes on first use and never
    /// again for this slot family.
    ///
    /// # Errors
    ///
    /// Codec errors for a span that is framing-valid but not a decodable
    /// itinerary.
    pub fn tree(&self) -> Result<Arc<Itinerary>, CoreError> {
        if let Some(t) = self.tree.get() {
            return Ok(Arc::clone(t));
        }
        let decoded: Itinerary = mar_wire::from_slice(&self.bytes)?;
        Ok(Arc::clone(self.tree.get_or_init(|| Arc::new(decoded))))
    }

    /// An owned copy of the decoded tree (for [`AgentRecord`] conversion).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ItinerarySlot::tree`].
    pub fn materialize(&self) -> Result<Itinerary, CoreError> {
        Ok((*self.tree()?).clone())
    }
}

/// A borrowed view of a serialized [`AgentRecord`] with the rollback-log
/// section left undecoded.
///
/// All fields before and after the log are decoded eagerly (they are needed
/// to run a step); the log section is checked for well-formed framing and
/// kept as the `bytes[..]` slice it occupies. Decoding work and allocation
/// are therefore O(record without log) instead of O(record).
#[derive(Debug)]
pub struct LazyRecord<'a> {
    /// Unique id.
    pub id: AgentId,
    /// Behaviour type name, borrowed from the serialized record.
    pub agent_type: &'a str,
    /// Home node index.
    pub home: u32,
    /// Private data space (SRO + WRO).
    pub data: DataSpace,
    /// The (immutable) itinerary as its wire span.
    pub itinerary: ItinerarySlot,
    /// Execution position.
    pub cursor: Cursor,
    /// Savepoint bookkeeping.
    pub table: SavepointTable,
    /// The encoding of the log's entries (concatenated, headerless).
    log_bytes: &'a [u8],
    /// Number of entries in the log section.
    log_entries: usize,
    /// The log's serialized total byte count (its `bytes` field).
    log_size: usize,
    /// Monotone counter of committed steps.
    pub step_seq: u64,
    /// Current status.
    pub status: AgentStatus,
    /// SRO capture mode for savepoints.
    pub logging_mode: LoggingMode,
    /// Which rollback mechanism this agent uses.
    pub rollback_mode: RollbackMode,
}

impl<'a> LazyRecord<'a> {
    /// Parses a serialized record, decoding everything but the log entries.
    /// The whole input must be exactly one record (the queue-item framing).
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that are not a well-framed record; note the
    /// log entries are only *structurally* validated — a framing-valid but
    /// semantically corrupt entry surfaces when the log is materialized.
    pub fn parse(bytes: &'a [u8]) -> Result<LazyRecord<'a>, CoreError> {
        let mut off = 0usize;
        let (fields, n) = mar_wire::read_seq_header(bytes)?;
        off += n;
        if fields != RECORD_FIELDS {
            return Err(CoreError::CorruptLog(format!(
                "record has {fields} fields, expected {RECORD_FIELDS}"
            )));
        }
        fn field<'de, T: serde::Deserialize<'de>>(
            bytes: &'de [u8],
            off: &mut usize,
        ) -> Result<T, CoreError> {
            let (v, n) = mar_wire::from_slice_prefix::<T>(&bytes[*off..])?;
            *off += n;
            Ok(v)
        }
        let id = field::<AgentId>(bytes, &mut off)?;
        let agent_type = field::<&str>(bytes, &mut off)?;
        let home = field::<u32>(bytes, &mut off)?;
        let data = field::<DataSpace>(bytes, &mut off)?;
        // The itinerary is captured as its wire span: arity-checked and
        // structurally skipped, never decoded here. It decodes lazily on
        // first cursor access.
        let (itinerary, n) = ItinerarySlot::from_prefix(&bytes[off..])?;
        off += n;
        let cursor = field::<Cursor>(bytes, &mut off)?;
        let table = field::<SavepointTable>(bytes, &mut off)?;
        // The log: `SEQ(2) SEQ(n) entry*n bytes` — walk the entries without
        // building them.
        let (log_fields, n) = mar_wire::read_seq_header(&bytes[off..])?;
        off += n;
        if log_fields != LOG_FIELDS {
            return Err(CoreError::CorruptLog(format!(
                "log has {log_fields} fields, expected {LOG_FIELDS}"
            )));
        }
        let (entries, n) = mar_wire::read_seq_header(&bytes[off..])?;
        off += n;
        let entries_start = off;
        for _ in 0..entries {
            off += mar_wire::skip_value(&bytes[off..])?;
        }
        let log_bytes = &bytes[entries_start..off];
        let log_size = field::<u64>(bytes, &mut off)? as usize;
        let step_seq = field::<u64>(bytes, &mut off)?;
        let status = field::<AgentStatus>(bytes, &mut off)?;
        let logging_mode = field::<LoggingMode>(bytes, &mut off)?;
        let rollback_mode = field::<RollbackMode>(bytes, &mut off)?;
        if off != bytes.len() {
            return Err(mar_wire::WireError::TrailingBytes(bytes.len() - off).into());
        }
        Ok(LazyRecord {
            id,
            agent_type,
            home,
            data,
            itinerary,
            cursor,
            table,
            log_bytes,
            log_entries: entries as usize,
            log_size,
            step_seq,
            status,
            logging_mode,
            rollback_mode,
        })
    }

    /// Number of log entries (known without decoding them).
    pub fn log_entry_count(&self) -> usize {
        self.log_entries
    }

    /// The log's total encoded byte count (its serialized `bytes` field).
    pub fn log_size_bytes(&self) -> usize {
        self.log_size
    }

    /// Decodes the log section into a full [`RollbackLog`].
    ///
    /// # Errors
    ///
    /// Codec errors for entries that are framing-valid but not decodable.
    pub fn decode_log(&self) -> Result<RollbackLog, CoreError> {
        decode_entries(self.log_bytes, self.log_entries, self.log_size)
    }

    /// Converts into an owned [`ResidentRecord`], copying only the log
    /// section's bytes (one memcpy — the log entries stay undecoded).
    pub fn into_resident(self) -> ResidentRecord {
        ResidentRecord {
            id: self.id,
            agent_type: self.agent_type.to_owned(),
            home: self.home,
            data: self.data,
            itinerary: self.itinerary,
            cursor: self.cursor,
            table: self.table,
            log: ResidentLog::Sealed(SealedLog {
                retained: self.log_bytes.to_vec(),
                retained_entries: self.log_entries,
                retained_size: self.log_size,
                appended: RollbackLog::new(),
            }),
            step_seq: self.step_seq,
            status: self.status,
            logging_mode: self.logging_mode,
            rollback_mode: self.rollback_mode,
        }
    }

    /// Fully decodes into an [`AgentRecord`].
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn into_record(self) -> Result<AgentRecord, CoreError> {
        let log = self.decode_log()?;
        Ok(AgentRecord {
            id: self.id,
            agent_type: self.agent_type.to_owned(),
            home: self.home,
            data: self.data,
            itinerary: self.itinerary.materialize()?,
            cursor: self.cursor,
            table: self.table,
            log,
            step_seq: self.step_seq,
            status: self.status,
            logging_mode: self.logging_mode,
            rollback_mode: self.rollback_mode,
        })
    }
}

fn decode_entries(bytes: &[u8], count: usize, total_size: usize) -> Result<RollbackLog, CoreError> {
    let mut entries = Vec::with_capacity(count);
    let mut off = 0usize;
    for _ in 0..count {
        let (entry, n) = mar_wire::from_slice_prefix::<LogEntry>(&bytes[off..])?;
        off += n;
        entries.push(entry);
    }
    if off != bytes.len() {
        return Err(mar_wire::WireError::TrailingBytes(bytes.len() - off).into());
    }
    Ok(RollbackLog::from_wire_parts(entries, total_size))
}

/// The sealed form of a resident record's log: the retained encoded bytes
/// of every entry up to the last encode, plus the (decoded) entries
/// appended since.
#[derive(Debug, Clone)]
pub struct SealedLog {
    /// Concatenated entry encodings (headerless).
    retained: Vec<u8>,
    /// How many entries `retained` holds.
    retained_entries: usize,
    /// Their total encoded size — always `retained.len()`-consistent with
    /// the wire's `bytes` field semantics.
    retained_size: usize,
    /// Entries appended since the seal; push-only.
    appended: RollbackLog,
}

/// A resident record's rollback log: sealed while forward execution only
/// appends, materialized on demand.
#[derive(Debug, Clone)]
pub enum ResidentLog {
    /// Encoded prefix + appended entries; the steady-state forward form.
    Sealed(SealedLog),
    /// Fully decoded (rollback, compaction, savepoint removal).
    Full(RollbackLog),
}

impl ResidentLog {
    /// Total number of entries.
    pub fn len(&self) -> usize {
        match self {
            ResidentLog::Sealed(s) => s.retained_entries + s.appended.len(),
            ResidentLog::Full(log) => log.len(),
        }
    }

    /// True when the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded size in bytes (exact in both forms).
    pub fn size_bytes(&self) -> usize {
        match self {
            ResidentLog::Sealed(s) => s.retained_size + s.appended.size_bytes(),
            ResidentLog::Full(log) => log.size_bytes(),
        }
    }

    /// True while the log prefix is still encoded.
    pub fn is_sealed(&self) -> bool {
        matches!(self, ResidentLog::Sealed(_))
    }

    /// The log to append new entries to. In sealed form this is the small
    /// appended-entries log — pushing there is the whole point: the step
    /// path logs BOS/OE/EOS frames and savepoint entries without ever
    /// decoding the retained prefix.
    pub fn for_append(&mut self) -> &mut RollbackLog {
        match self {
            ResidentLog::Sealed(s) => &mut s.appended,
            ResidentLog::Full(log) => log,
        }
    }

    /// Materializes the full [`RollbackLog`], decoding the sealed prefix if
    /// necessary and absorbing the appended entries (moved, their cached
    /// sizes preserved). Idempotent; every later call is a field access.
    ///
    /// # Errors
    ///
    /// Codec errors for a sealed prefix whose entries fail to decode.
    pub fn materialize(&mut self) -> Result<&mut RollbackLog, CoreError> {
        if let ResidentLog::Sealed(s) = self {
            let mut log = decode_entries(&s.retained, s.retained_entries, s.retained_size)?;
            log.absorb(std::mem::take(&mut s.appended));
            *self = ResidentLog::Full(log);
        }
        match self {
            ResidentLog::Full(log) => Ok(log),
            ResidentLog::Sealed(_) => unreachable!("materialized above"),
        }
    }

    /// Consumes the log, materializing if needed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResidentLog::materialize`].
    pub fn into_log(mut self) -> Result<RollbackLog, CoreError> {
        self.materialize()?;
        match self {
            ResidentLog::Full(log) => Ok(log),
            ResidentLog::Sealed(_) => unreachable!("materialized above"),
        }
    }
}

/// The owned, volatile-memory working form of an agent record: every field
/// of [`AgentRecord`] with the rollback log kept as a [`ResidentLog`].
///
/// The platform's step path decodes a queue item into this once (lazily —
/// see [`LazyRecord`]), runs steps against it, and re-encodes it in
/// O(delta) via [`ResidentRecord::to_bytes`]. While an agent stays on a
/// node, the record additionally stays cached in memory between steps, so
/// the steady state neither decodes nor re-encodes anything but the delta.
#[derive(Debug, Clone)]
pub struct ResidentRecord {
    /// Unique id.
    pub id: AgentId,
    /// Behaviour type name (the agent's "code").
    pub agent_type: String,
    /// Node (location index) where results are reported.
    pub home: u32,
    /// Private data space (SRO + WRO).
    pub data: DataSpace,
    /// The (immutable) itinerary as its wire span.
    pub itinerary: ItinerarySlot,
    /// Execution position.
    pub cursor: Cursor,
    /// Savepoint bookkeeping.
    pub table: SavepointTable,
    /// The rollback log (sealed or materialized).
    pub log: ResidentLog,
    /// Monotone counter of committed steps.
    pub step_seq: u64,
    /// Current status.
    pub status: AgentStatus,
    /// SRO capture mode for savepoints.
    pub logging_mode: LoggingMode,
    /// Which rollback mechanism this agent uses.
    pub rollback_mode: RollbackMode,
}

impl ResidentRecord {
    /// Parses a serialized record into resident form without decoding the
    /// log entries (see [`LazyRecord::parse`]).
    ///
    /// # Errors
    ///
    /// Codec errors for malformed records.
    pub fn from_bytes(bytes: &[u8]) -> Result<ResidentRecord, CoreError> {
        Ok(LazyRecord::parse(bytes)?.into_resident())
    }

    /// Wraps a fully decoded record (log materialized).
    ///
    /// # Errors
    ///
    /// Codec errors from encoding the itinerary into its slot form.
    pub fn from_record(rec: AgentRecord) -> Result<ResidentRecord, CoreError> {
        Ok(ResidentRecord {
            id: rec.id,
            agent_type: rec.agent_type,
            home: rec.home,
            data: rec.data,
            itinerary: ItinerarySlot::from_tree(rec.itinerary)?,
            cursor: rec.cursor,
            table: rec.table,
            log: ResidentLog::Full(rec.log),
            step_seq: rec.step_seq,
            status: rec.status,
            logging_mode: rec.logging_mode,
            rollback_mode: rec.rollback_mode,
        })
    }

    /// Converts into a fully decoded [`AgentRecord`], materializing the log
    /// if it is still sealed.
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn into_record(self) -> Result<AgentRecord, CoreError> {
        Ok(AgentRecord {
            id: self.id,
            agent_type: self.agent_type,
            home: self.home,
            data: self.data,
            itinerary: self.itinerary.materialize()?,
            cursor: self.cursor,
            table: self.table,
            log: self.log.into_log()?,
            step_seq: self.step_seq,
            status: self.status,
            logging_mode: self.logging_mode,
            rollback_mode: self.rollback_mode,
        })
    }

    /// Applies a restore plan exactly like [`AgentRecord::apply_restore`]:
    /// SROs, cursor, savepoint bookkeeping, and status — the log is not
    /// touched (the planner already consumed its entries), so a sealed log
    /// stays sealed.
    pub fn apply_restore(&mut self, plan: crate::planner::RestorePlan) {
        self.data.restore_sro(plan.sro);
        self.cursor = plan.cursor;
        self.table.restore_from(&plan.table);
        // When the target was an ancestor's savepoint, the restored cursor
        // may already be inside nested subs entered before any step ran;
        // re-create their table frames as aliases of the target.
        let path = self.cursor.path();
        let subs: Vec<&str> = path.iter().skip(1).copied().collect();
        self.table.reconcile_with_path(&subs, plan.savepoint);
        self.status = AgentStatus::Forward;
    }

    /// Compacts the rollback log in place (materializing it first), exactly
    /// like [`AgentRecord::compact_log`].
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn compact_log(&mut self) -> Result<crate::log::CompactionReport, CoreError> {
        let log = self.log.materialize()?;
        Ok(log.compact(self.data.shadow()))
    }

    /// Serializes the record — byte-identical to
    /// [`AgentRecord::to_bytes`] of the equivalent record.
    ///
    /// Sealed logs are **splice-encoded**: the retained entry bytes are
    /// copied verbatim, entries appended since the last encode are encoded
    /// once (O(delta)), and the freshly encoded span — delimited by the
    /// appended entries' cached sizes — is folded into the retained bytes,
    /// so the *next* encode's delta starts empty. A **materialized** log is
    /// encoded entry by entry, and — for a record in forward execution,
    /// where everything after this point only appends — the freshly encoded
    /// entry section is installed as a new seal, so one post-materialization
    /// encode buys the O(delta) path back for the rest of the residence.
    /// (Rolling-back records stay materialized: the planner consumes
    /// entries every round.) Takes `&mut self` for exactly these folds; the
    /// output bytes are the same with or without them.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn to_bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        self.encode(true)
    }

    /// Like [`ResidentRecord::to_bytes`], for a record that is about to
    /// leave this memory (remote transfer): identical output bytes, but the
    /// fold/reseal cache-priming — an O(log) copy whose beneficiary would
    /// be the next local encode — is skipped.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn to_transfer_bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        self.encode(false)
    }

    fn encode(&mut self, retain: bool) -> Result<Vec<u8>, CoreError> {
        let cap = 256 + self.log.size_bytes() + self.data.approx_size();
        let mut ser = mar_wire::BinSerializer::with_capacity(cap);
        ser.begin_struct(RECORD_FIELDS as usize);
        ser.value(&self.id)?;
        ser.value(&self.agent_type)?;
        ser.value(&self.home)?;
        ser.value(&self.data)?;
        // The itinerary is immutable: its captured wire span is spliced in
        // verbatim (identical bytes to re-encoding, without the encode).
        ser.raw_value_bytes(self.itinerary.as_bytes());
        ser.value(&self.cursor)?;
        ser.value(&self.table)?;
        // The log field: splice for sealed logs, entry-by-entry (the log's
        // flat wire layout) for materialized ones.
        let mut fold: Option<(usize, usize)> = None;
        let mut reseal: Option<(usize, usize, usize, usize)> = None;
        match &self.log {
            ResidentLog::Full(log) => {
                let size = log.size_bytes();
                ser.begin_struct(LOG_FIELDS as usize);
                ser.begin_seq(log.len());
                let entries_start = ser.len();
                for entry in log.iter() {
                    ser.value(entry)?;
                }
                let entries_end = ser.len();
                ser.value(&size)?;
                if retain && matches!(self.status, AgentStatus::Forward) {
                    reseal = Some((entries_start, entries_end, log.len(), size));
                }
            }
            ResidentLog::Sealed(s) => {
                let delta_len = s.appended.size_bytes();
                let total_entries = s.retained_entries + s.appended.len();
                let total_size = s.retained_size + delta_len;
                ser.begin_struct(LOG_FIELDS as usize);
                ser.begin_seq(total_entries);
                ser.raw_value_bytes(&s.retained);
                let delta_start = ser.len();
                for entry in s.appended.iter() {
                    ser.value(entry)?;
                }
                debug_assert_eq!(
                    ser.len() - delta_start,
                    delta_len,
                    "cached entry sizes must delimit the spliced span exactly"
                );
                fold = Some((delta_start, delta_len));
                ser.value(&total_size)?;
            }
        }
        ser.value(&self.step_seq)?;
        ser.value(&self.status)?;
        ser.value(&self.logging_mode)?;
        ser.value(&self.rollback_mode)?;
        let out = ser.into_bytes();
        let fold = if retain { fold } else { None };
        if let (Some((delta_start, delta_len)), ResidentLog::Sealed(s)) = (fold, &mut self.log) {
            // Fold the freshly encoded entries into the retained bytes: the
            // next encode splices them instead of re-encoding.
            s.retained
                .extend_from_slice(&out[delta_start..delta_start + delta_len]);
            s.retained_entries += s.appended.len();
            s.retained_size += delta_len;
            s.appended = RollbackLog::new();
        }
        if let Some((start, end, entries, size)) = reseal {
            self.log = ResidentLog::Sealed(SealedLog {
                retained: out[start..end].to_vec(),
                retained_entries: entries,
                retained_size: size,
                appended: RollbackLog::new(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::{CompOp, EntryKind};
    use mar_itinerary::samples;
    use mar_wire::Value;

    fn record() -> AgentRecord {
        let mut data = DataSpace::new();
        data.set_sro("notes", Value::list([Value::from(1i64)]));
        data.set_wro("wallet", Value::from(100i64));
        let mut rec = AgentRecord::new(
            AgentId(7),
            "shopper",
            0,
            data,
            samples::fig6(),
            LoggingMode::State,
            RollbackMode::Optimized,
        );
        let cursor = rec.cursor.clone();
        rec.table.on_enter_sub(
            "S",
            &mut rec.data,
            &cursor,
            &mut rec.log,
            LoggingMode::State,
        );
        for i in 0..3u64 {
            rec.log.append_step(
                1,
                i,
                "m",
                [(EntryKind::Resource, CompOp::new("undo", Value::from(1i64)))],
                vec![],
            );
            rec.step_seq += 1;
            rec.table.on_step_committed();
        }
        rec
    }

    #[test]
    fn lazy_parse_reads_everything_but_the_log() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let lazy = LazyRecord::parse(&bytes).unwrap();
        assert_eq!(lazy.id, rec.id);
        assert_eq!(lazy.agent_type, "shopper");
        assert_eq!(lazy.data, rec.data);
        assert_eq!(lazy.cursor, rec.cursor);
        assert_eq!(lazy.table, rec.table);
        assert_eq!(lazy.step_seq, rec.step_seq);
        assert_eq!(lazy.status, rec.status);
        assert_eq!(lazy.log_entry_count(), rec.log.len());
        assert_eq!(lazy.log_size_bytes(), rec.log.size_bytes());
        // The log slice points into the input buffer.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&lazy.agent_type.as_ptr()));
        // And full decode restores the record exactly.
        assert_eq!(lazy.into_record().unwrap(), rec);
    }

    #[test]
    fn lazy_parse_rejects_garbage_and_truncation() {
        assert!(LazyRecord::parse(&[0xff, 0x01]).is_err());
        let bytes = record().to_bytes().unwrap();
        assert!(LazyRecord::parse(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(LazyRecord::parse(&trailing).is_err());
    }

    #[test]
    fn sealed_resident_roundtrips_byte_identically() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let mut resident = ResidentRecord::from_bytes(&bytes).unwrap();
        assert!(resident.log.is_sealed());
        assert_eq!(resident.log.len(), rec.log.len());
        assert_eq!(resident.log.size_bytes(), rec.log.size_bytes());
        // Unchanged: encode is a pure splice of the retained bytes.
        assert_eq!(resident.to_bytes().unwrap(), bytes);
        // And again (the fold must be idempotent for no-op deltas).
        assert_eq!(resident.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn splice_encode_equals_full_reencode_after_appends() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let mut resident = ResidentRecord::from_bytes(&bytes).unwrap();
        // Mirror a committed step on both representations.
        let mut full = rec.clone();
        for r in 0..2 {
            let ops = [(
                EntryKind::Agent,
                CompOp::new("give_back", Value::from(r as i64)),
            )];
            resident.log.for_append().append_step(
                2,
                resident.step_seq,
                "buy",
                ops.clone(),
                vec![3],
            );
            resident.step_seq += 1;
            resident
                .data
                .set_sro("notes", Value::list([Value::from(r as i64)]));
            full.log.append_step(2, full.step_seq, "buy", ops, vec![3]);
            full.step_seq += 1;
            full.data
                .set_sro("notes", Value::list([Value::from(r as i64)]));
            let spliced = resident.to_bytes().unwrap();
            assert_eq!(spliced, full.to_bytes().unwrap(), "round {r}");
            assert!(resident.log.is_sealed(), "appends must not unseal");
        }
    }

    #[test]
    fn materialize_merges_appended_entries() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let mut resident = ResidentRecord::from_bytes(&bytes).unwrap();
        resident.log.for_append().append_step(
            2,
            resident.step_seq,
            "buy",
            [(EntryKind::Resource, CompOp::new("undo", Value::Null))],
            vec![],
        );
        resident.step_seq += 1;
        let mut full = rec.clone();
        full.log.append_step(
            2,
            full.step_seq,
            "buy",
            [(EntryKind::Resource, CompOp::new("undo", Value::Null))],
            vec![],
        );
        full.step_seq += 1;
        let log = resident.log.materialize().unwrap();
        assert_eq!(*log, full.log);
        assert_eq!(log.size_bytes(), full.log.size_bytes());
        // Materialized records encode identically too.
        assert_eq!(resident.to_bytes().unwrap(), full.to_bytes().unwrap());
        assert_eq!(resident.into_record().unwrap(), full);
    }

    #[test]
    fn from_record_roundtrip() {
        let rec = record();
        let mut resident = ResidentRecord::from_record(rec.clone()).unwrap();
        assert!(!resident.log.is_sealed());
        assert_eq!(resident.to_bytes().unwrap(), rec.to_bytes().unwrap());
        assert_eq!(resident.into_record().unwrap(), rec);
    }

    #[test]
    fn slot_bytes_are_stable_across_construction_paths() {
        // Same tree, three roads to a slot: from the decoded tree, from the
        // span captured out of an encoded record, and from a tree rebuilt
        // by decode. All must agree on bytes.
        let tree = samples::fig6();
        let from_tree = ItinerarySlot::from_tree(tree.clone()).unwrap();
        let bytes = record().to_bytes().unwrap();
        let parsed = LazyRecord::parse(&bytes).unwrap().itinerary;
        let rebuilt = ItinerarySlot::from_tree(parsed.materialize().unwrap()).unwrap();
        assert_eq!(from_tree, parsed);
        assert_eq!(from_tree, rebuilt);
        assert_eq!(
            from_tree.as_bytes(),
            &mar_wire::to_bytes(&tree).unwrap()[..]
        );
    }

    #[test]
    fn slot_clones_share_one_decode() {
        let bytes = record().to_bytes().unwrap();
        let slot = LazyRecord::parse(&bytes).unwrap().itinerary;
        assert!(!slot.is_decoded(), "parse must not decode the itinerary");
        let clone = slot.clone();
        let tree = clone.tree().unwrap();
        // Decoding through the clone materializes the original too.
        assert!(slot.is_decoded());
        assert!(Arc::ptr_eq(&tree, &slot.tree().unwrap()));
        assert_eq!(*tree, samples::fig6());
    }

    #[test]
    fn slot_rejects_spans_that_are_not_one_inline_itinerary() {
        // A one-field struct (the shape of a bare content reference).
        let mut ser = mar_wire::BinSerializer::with_capacity(12);
        ser.begin_struct(1);
        ser.value(&0xDEAD_BEEF_u64).unwrap();
        let one_field = ser.into_bytes();
        let inline = mar_wire::to_bytes(&samples::fig6()).unwrap();
        let truncated = &inline[..inline.len() - 1];
        let mut padded = inline.clone();
        padded.push(0);
        for span in [&one_field[..], truncated, &padded[..], &[][..]] {
            assert!(ItinerarySlot::from_span(span).is_err());
        }
        assert!(ItinerarySlot::from_span(&inline).is_ok());

        // The same check guards `LazyRecord::parse`: a record whose
        // itinerary span is the one-field struct fails at parse time.
        let bytes = record().to_bytes().unwrap();
        let (_, header) = mar_wire::read_seq_header(&bytes).unwrap();
        let mut start = header;
        for _ in 0..4 {
            start += mar_wire::skip_value(&bytes[start..]).unwrap();
        }
        let end = start + mar_wire::skip_value(&bytes[start..]).unwrap();
        let spliced = [&bytes[..start], &one_field[..], &bytes[end..]].concat();
        assert!(matches!(
            LazyRecord::parse(&spliced),
            Err(CoreError::CorruptLog(_))
        ));
    }
}
