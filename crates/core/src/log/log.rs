//! The rollback log structure: a segment-indexed stack of [`LogEntry`]s.
//!
//! # Representation
//!
//! Conceptually the log is the entry stack of §4.2 — and that is exactly
//! what it serializes as, so migration snapshots are interchangeable with
//! the earlier flat-vector representation. In memory, however, entries are
//! grouped into per-savepoint [`Segment`]s with a `SavepointId → segment`
//! index, and every entry carries a cached encoded size:
//!
//! * savepoint lookups ([`RollbackLog::find_savepoint`],
//!   [`RollbackLog::contains_savepoint`]) are an index probe, not an entry
//!   scan;
//! * savepoint removal at sub-itinerary completion
//!   ([`RollbackLog::remove_savepoint`], the §4.4.2 maintenance operation)
//!   splices one segment and touches only savepoint entries above it —
//!   it no longer walks, clones, or re-encodes the whole log;
//! * byte accounting ([`RollbackLog::size_bytes`], [`RollbackLog::stats`])
//!   is maintained incrementally from cached sizes; entries are encoded at
//!   most once to be measured, never cloned.
//!
//! The cached sizes use interior mutability through atomics, so the log is
//! `Send + Sync`: the sharded simulator runs nodes on worker threads, and
//! a migrating agent is owned by exactly one node at a time (§2), so only
//! reads are ever shared.

use serde::de::{SeqAccess, Visitor};
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeMap;
use std::fmt;

use crate::comp::{CompOp, EntryKind};
use crate::data::DataSpace;
use crate::error::CoreError;
use crate::log::entry::{BosEntry, EosEntry, LogEntry, OpEntry, SpEntry, SroPayload};
use crate::log::segment::{ByteRollup, Counts, RollupCell, Segment, Stored, Tail};
use crate::log::stats::LogStats;
use crate::savepoint::SavepointId;

/// The agent rollback log: a stack of [`LogEntry`]s with byte-size
/// accounting (the log migrates with the agent, so its size is a
/// first-class experimental quantity, §4.4.2), indexed by savepoint for
/// O(log n) savepoint operations.
#[derive(Debug, Clone, Default)]
pub struct RollbackLog {
    /// Entries logged before the first savepoint entry.
    head: Tail,
    /// One segment per savepoint entry, oldest first. Visible to the
    /// sibling [`compact`](crate::log::compact) module, which walks and
    /// rewrites savepoint payloads in place.
    pub(super) segments: Vec<Segment>,
    /// Savepoint id → position in `segments`.
    index: BTreeMap<SavepointId, usize>,
    /// Total encoded size of all entries (always exact; serialized).
    bytes: usize,
    /// Per-kind entry counts (always exact).
    pub(super) counts: Counts,
    /// Per-kind byte totals; `None` until first demanded (deserialized
    /// logs learn entry sizes lazily), maintained incrementally afterwards.
    rollup: RollupCell,
    /// Whether a mutation since the last [`compact`](Self::compact) pass
    /// could have introduced savepoint-payload redundancy. Not serialized
    /// (the wire format is frozen), so deserialized logs start
    /// conservatively dirty when they hold any savepoint.
    dirty: bool,
}

impl RollbackLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RollbackLog::default()
    }

    // ----- stack operations -------------------------------------------------

    /// Appends an entry. A savepoint entry opens a new segment; anything
    /// else joins the newest segment's tail.
    pub fn push(&mut self, entry: LogEntry) {
        self.push_stored(Stored::measured(entry));
    }

    /// Appends an already-wrapped entry, reusing its cached encoded size —
    /// the move path of [`absorb`](Self::absorb) and the reason merging two
    /// logs never re-encodes an entry.
    pub(crate) fn push_stored(&mut self, stored: Stored) {
        self.account_add(&stored);
        match &stored.entry {
            LogEntry::Savepoint(sp) => {
                let id = sp.id;
                // The savepoint allocator is monotone (SavepointTable keeps
                // `next_id` monotone across restores), so a duplicate id is
                // a programming error; failing loudly beats silently
                // corrupting the id → segment index.
                assert!(
                    !self.index.contains_key(&id),
                    "duplicate savepoint id {id} pushed"
                );
                // A new savepoint payload may duplicate an older one (or, as
                // a marker, start a chain): the log may have redundancy again.
                self.dirty = true;
                self.index.insert(id, self.segments.len());
                self.segments.push(Segment::new(stored));
            }
            _ => match self.segments.last_mut() {
                Some(seg) => seg.tail.push(stored),
                None => self.head.push(stored),
            },
        }
    }

    /// Removes and returns the last entry.
    pub fn pop(&mut self) -> Option<LogEntry> {
        let stored = match self.segments.last_mut() {
            Some(seg) => match seg.tail.pop() {
                Some(stored) => stored,
                None => {
                    let seg = self.segments.pop().expect("non-empty checked above");
                    if let LogEntry::Savepoint(sp) = &seg.sp.entry {
                        self.index.remove(&sp.id);
                    }
                    seg.sp
                }
            },
            None => self.head.pop()?,
        };
        self.account_remove(&stored);
        Some(stored.entry)
    }

    /// The last entry, if any.
    pub fn last(&self) -> Option<&LogEntry> {
        match self.segments.last() {
            Some(seg) => Some(&seg.tail.last().unwrap_or(&seg.sp).entry),
            None => self.head.last().map(|s| &s.entry),
        }
    }

    /// The newest entry if it is a savepoint entry (i.e. the newest segment
    /// has an empty tail).
    pub fn top_savepoint(&self) -> Option<&SpEntry> {
        match self.segments.last() {
            Some(seg) if seg.tail.is_empty() => seg.sp.entry.as_savepoint(),
            _ => None,
        }
    }

    /// Pops the newest entry if it is a savepoint entry, returning it
    /// unwrapped. This is the planner's segment walk: popping adjacent
    /// savepoints above a rollback target is O(1) per savepoint.
    pub fn pop_top_savepoint(&mut self) -> Option<SpEntry> {
        self.top_savepoint()?;
        match self.pop() {
            Some(LogEntry::Savepoint(sp)) => Some(sp),
            _ => unreachable!("top_savepoint checked above"),
        }
    }

    /// Pops an entry that must be an end-of-step entry.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptLog`] if the last entry is not an EOS.
    pub fn pop_eos(&mut self) -> Result<EosEntry, CoreError> {
        match self.pop() {
            Some(LogEntry::EndOfStep(e)) => Ok(e),
            Some(other) => {
                let tag = other.tag();
                self.push(other);
                Err(CoreError::CorruptLog(format!("expected EOS, found {tag}")))
            }
            None => Err(CoreError::EmptyLog),
        }
    }

    /// Logs one committed step as a unit: the begin-of-step entry, one
    /// operation entry per compensation in logged order, and the
    /// end-of-step entry with the mixed flag (§4.2). Returns whether any
    /// entry was a mixed compensation entry.
    ///
    /// # Examples
    ///
    /// ```
    /// use mar_core::comp::{CompOp, EntryKind};
    /// use mar_core::log::RollbackLog;
    /// use mar_wire::Value;
    ///
    /// let mut log = RollbackLog::new();
    /// let mixed = log.append_step(
    ///     2,              // node the step ran on
    ///     0,              // step sequence number
    ///     "reserve",      // step method (diagnostics)
    ///     [(EntryKind::Resource, CompOp::new("bank.undo_transfer", Value::Null))],
    ///     vec![],         // alternative compensation nodes
    /// );
    /// assert!(!mixed);
    /// // One BOS + one OE + one EOS, in log order.
    /// assert_eq!(log.len(), 3);
    /// assert_eq!(log.last_eos().unwrap().step_seq, 0);
    /// ```
    pub fn append_step(
        &mut self,
        node: u32,
        step_seq: u64,
        method: &str,
        ops: impl IntoIterator<Item = (EntryKind, CompOp)>,
        alt_nodes: Vec<u32>,
    ) -> bool {
        self.push(LogEntry::BeginOfStep(BosEntry {
            node,
            step_seq,
            method: method.to_owned(),
        }));
        let mut has_mixed = false;
        for (kind, op) in ops {
            has_mixed |= kind == EntryKind::Mixed;
            self.push(LogEntry::Operation(OpEntry { kind, op, step_seq }));
        }
        self.push(LogEntry::EndOfStep(EosEntry {
            node,
            step_seq,
            method: method.to_owned(),
            has_mixed,
            alt_nodes,
        }));
        has_mixed
    }

    // ----- size and iteration ----------------------------------------------

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.counts.total()
    }

    /// True when the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded size of all entries in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of savepoint segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Whether a [`compact`](Self::compact) pass could still find something
    /// to rewrite: `false` directly after a pass (and for logs that never
    /// gained a savepoint since), until a mutation that can reintroduce
    /// savepoint-payload redundancy — pushing a savepoint entry or removing
    /// one (removal composes deltas and upgrades markers). Popping entries
    /// never sets it: payloads below the top are untouched and compaction
    /// relationships only point downward. The flag is not serialized, so a
    /// deserialized log is conservatively dirty when it holds savepoints.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Clears the dirty flag (compaction just ran, or the caller proved the
    /// log redundancy-free by other means).
    pub(super) fn mark_compacted(&mut self) {
        self.dirty = false;
    }

    /// The ids of all savepoint entries currently in the log, oldest first.
    pub fn savepoint_ids(&self) -> impl Iterator<Item = SavepointId> + '_ {
        self.segments
            .iter()
            .filter_map(|seg| seg.sp.entry.as_savepoint().map(|sp| sp.id))
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.stored_iter().map(|s| &s.entry)
    }

    /// Iterates newest-first — the rollback direction. Suffix walks (the
    /// batch planner's lookahead stops at its target savepoint) never touch
    /// entries below the stop point.
    pub fn iter_rev(&self) -> impl Iterator<Item = &LogEntry> {
        self.segments
            .iter()
            .rev()
            .flat_map(|seg| seg.tail.iter_rev().chain(std::iter::once(&seg.sp)))
            .chain(self.head.iter_rev())
            .map(|s| &s.entry)
    }

    fn stored_iter(&self) -> impl Iterator<Item = &Stored> {
        self.head.iter().chain(
            self.segments
                .iter()
                .flat_map(|seg| std::iter::once(&seg.sp).chain(seg.tail.iter())),
        )
    }

    /// Discards everything (top-level sub-itinerary completion, §4.4.2).
    pub fn clear(&mut self) {
        *self = RollbackLog::default();
    }

    /// Appends every entry of `other` after this log's entries, in order,
    /// moving the stored entries so their cached encoded sizes survive —
    /// no entry is cloned or re-encoded. This is how a sealed (still
    /// encoded) log prefix is merged with the entries appended since it was
    /// sealed when a resident record materializes its log.
    pub fn absorb(&mut self, other: RollbackLog) {
        for stored in other.into_stored() {
            self.push_stored(stored);
        }
    }

    fn into_stored(self) -> impl Iterator<Item = Stored> {
        self.head.into_iter_stored().chain(
            self.segments
                .into_iter()
                .flat_map(|seg| std::iter::once(seg.sp).chain(seg.tail.into_iter_stored())),
        )
    }

    /// Rebuilds a log from decoded wire parts: the flat entry sequence and
    /// the serialized total byte count. Entry sizes stay lazily measured,
    /// exactly like full-record deserialization.
    pub(crate) fn from_wire_parts(entries: Vec<LogEntry>, bytes: usize) -> RollbackLog {
        RollbackLog::from_entries_with_bytes(entries, bytes)
    }

    // ----- savepoint queries (index-backed) --------------------------------

    /// Finds a savepoint entry by id. O(log n) in the number of savepoints.
    pub fn find_savepoint(&self, id: SavepointId) -> Option<&SpEntry> {
        let pos = *self.index.get(&id)?;
        self.segments[pos].sp.entry.as_savepoint()
    }

    /// Whether the log contains the savepoint. O(log n).
    pub fn contains_savepoint(&self, id: SavepointId) -> bool {
        self.index.contains_key(&id)
    }

    /// The id of the most recent data-bearing (non-marker) savepoint.
    /// Touches only savepoint entries (never operation entries).
    pub fn last_data_savepoint(&self) -> Option<SavepointId> {
        self.segments.iter().rev().find_map(|seg| {
            let sp = seg.sp.entry.as_savepoint()?;
            (!sp.sro.is_marker()).then_some(sp.id)
        })
    }

    /// The most recent end-of-step entry (the next compensation target).
    /// Empty-tailed segments — savepoints stacked on top of the last step —
    /// are skipped in O(1) each.
    pub fn last_eos(&self) -> Option<&EosEntry> {
        fn as_eos(stored: &Stored) -> Option<&EosEntry> {
            match &stored.entry {
                LogEntry::EndOfStep(eos) => Some(eos),
                _ => None,
            }
        }
        self.segments
            .iter()
            .rev()
            .find_map(|seg| seg.tail.iter_rev().find_map(as_eos))
            .or_else(|| self.head.iter_rev().find_map(as_eos))
    }

    /// Removes the savepoint entry `id` when its sub-itinerary completes
    /// (§4.4.2), preserving restorability of every other savepoint:
    ///
    /// * **Transition logging:** the removed delta is absorbed by the first
    ///   savepoint above that pops after it in the shadow walk — composed
    ///   into a delta savepoint, or carried verbatim by a marker that
    ///   referenced the removed savepoint (such markers share its state);
    ///   with nothing above, it is applied to the agent's shadow copy (the
    ///   removed savepoint *was* the newest). This is the "non-trivial
    ///   task" the paper alludes to.
    /// * **State logging:** if a newer marker references the removed
    ///   savepoint, the marker is upgraded in place to carry the full image.
    /// * **Markers:** removing a marker re-points newer markers that
    ///   referenced it at its own target, so no marker ever dangles.
    ///
    /// The removed segment's tail entries are spliced into the previous
    /// segment; only savepoint entries above the removal point are
    /// examined, and in-place payload mutations re-measure exactly the
    /// mutated entry (no clone-and-encode).
    ///
    /// Returns `false` if the savepoint is not in the log.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptLog`] on payload inconsistencies.
    ///
    /// # Examples
    ///
    /// ```
    /// use mar_core::log::{LoggingMode, RollbackLog, SroPayload};
    /// use mar_core::{DataSpace, SavepointTable};
    /// use mar_itinerary::{samples, Cursor};
    ///
    /// let main = samples::fig6();
    /// let cursor = Cursor::new(&main);
    /// let (mut data, mut table, mut log) =
    ///     (DataSpace::new(), SavepointTable::new(), RollbackLog::new());
    /// let a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::State);
    /// let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::State);
    /// // B is a marker onto A; removing A upgrades B to carry the image.
    /// assert_eq!(log.find_savepoint(b).unwrap().sro, SroPayload::Ref(a));
    /// assert!(log.remove_savepoint(a, &mut data).unwrap());
    /// assert!(matches!(
    ///     log.find_savepoint(b).unwrap().sro,
    ///     SroPayload::Full(_)
    /// ));
    /// assert!(!log.remove_savepoint(a, &mut data).unwrap(), "already gone");
    /// ```
    pub fn remove_savepoint(
        &mut self,
        id: SavepointId,
        data: &mut DataSpace,
    ) -> Result<bool, CoreError> {
        let Some(pos) = self.index.remove(&id) else {
            return Ok(false);
        };
        // Removal rewrites payloads above the removal point (delta
        // composition, marker upgrades): re-minimization may apply again.
        self.dirty = true;
        let seg = self.segments.remove(pos);
        for p in self.index.values_mut() {
            if *p > pos {
                *p -= 1;
            }
        }
        self.account_remove(&seg.sp);
        // The tail keeps its place in the entry order: it now follows the
        // previous segment's entries directly — an O(1) chunk splice, no
        // entry is moved.
        match pos {
            0 => self.head.absorb(seg.tail),
            p => self.segments[p - 1].tail.absorb(seg.tail),
        }
        let LogEntry::Savepoint(removed) = seg.sp.entry else {
            unreachable!("segments start at savepoint entries");
        };

        match &removed.sro {
            SroPayload::Delta(delta) => {
                // The removed backward delta must be absorbed by whatever
                // the rollback shadow walk pops right after it: the first
                // savepoint above that is a delta savepoint (compose the
                // deltas) **or** a marker referencing the removed savepoint
                // (the §4.4.2 marker rule and compaction demotions both
                // create such markers; their state *is* the removed
                // savepoint's state, so the marker becomes the delta's new
                // carrier — composing past it would make rollbacks to the
                // marker restore the state *below* the removed savepoint).
                let carrier = (pos..self.segments.len()).find(|&j| {
                    match self.segments[j].sp.entry.as_savepoint().map(|sp| &sp.sro) {
                        Some(SroPayload::Delta(_)) => true,
                        Some(SroPayload::Ref(r)) => *r == id,
                        _ => false,
                    }
                });
                match carrier {
                    Some(j) => {
                        let carrier_sp = self.segments[j]
                            .sp
                            .entry
                            .as_savepoint()
                            .expect("segments start at savepoint entries");
                        let carrier_id = carrier_sp.id;
                        let was_marker = carrier_sp.sro.is_marker();
                        let (old, new) = self.segments[j].sp.remeasure(|entry| {
                            let LogEntry::Savepoint(sp) = entry else {
                                unreachable!("segments start at savepoint entries");
                            };
                            sp.sro = match &sp.sro {
                                SroPayload::Delta(next) => SroPayload::Delta(next.compose(delta)),
                                SroPayload::Ref(_) => SroPayload::Delta(delta.clone()),
                                SroPayload::Full(_) => {
                                    unreachable!("carrier scan matched delta or ref")
                                }
                            };
                        });
                        if was_marker {
                            self.counts.markers -= 1;
                        }
                        self.resize_savepoint_bytes(old, new);
                        // Any further markers that referenced the removed
                        // savepoint now reference its carrier (same state).
                        for k in (j + 1)..self.segments.len() {
                            let refs_removed = matches!(
                                self.segments[k].sp.entry.as_savepoint().map(|sp| &sp.sro),
                                Some(SroPayload::Ref(r)) if *r == id
                            );
                            if refs_removed {
                                let (old, new) = self.segments[k].sp.remeasure(|entry| {
                                    let LogEntry::Savepoint(sp) = entry else {
                                        unreachable!("segments start at savepoint entries");
                                    };
                                    sp.sro = SroPayload::Ref(carrier_id);
                                });
                                self.resize_savepoint_bytes(old, new);
                            }
                        }
                    }
                    None => {
                        // Removed the newest delta savepoint: the shadow
                        // (state at that savepoint) moves back to the
                        // previous one.
                        data.apply_delta_to_shadow(delta);
                    }
                }
            }
            SroPayload::Full(image) => {
                // Upgrade every newer marker referencing this savepoint.
                for j in pos..self.segments.len() {
                    let is_ref = matches!(
                        self.segments[j].sp.entry.as_savepoint().map(|sp| &sp.sro),
                        Some(SroPayload::Ref(r)) if *r == id
                    );
                    if is_ref {
                        let (old, new) = self.segments[j].sp.remeasure(|entry| {
                            let LogEntry::Savepoint(sp) = entry else {
                                unreachable!("segments start at savepoint entries");
                            };
                            sp.sro = SroPayload::Full(image.clone());
                        });
                        self.counts.markers -= 1;
                        self.resize_savepoint_bytes(old, new);
                    }
                }
            }
            SroPayload::Ref(target) => {
                // Markers hold no data, but newer markers may reference the
                // removed one (compaction demotions create such chains).
                // Re-point them at the removed marker's own target so no
                // marker ever dangles.
                let target = *target;
                for j in pos..self.segments.len() {
                    let refs_removed = matches!(
                        self.segments[j].sp.entry.as_savepoint().map(|sp| &sp.sro),
                        Some(SroPayload::Ref(r)) if *r == id
                    );
                    if refs_removed {
                        let (old, new) = self.segments[j].sp.remeasure(|entry| {
                            let LogEntry::Savepoint(sp) = entry else {
                                unreachable!("segments start at savepoint entries");
                            };
                            sp.sro = SroPayload::Ref(target);
                        });
                        self.resize_savepoint_bytes(old, new);
                    }
                }
            }
        }
        Ok(true)
    }

    // ----- accounting -------------------------------------------------------

    fn account_add(&mut self, stored: &Stored) {
        let size = stored.size();
        self.bytes += size;
        self.counts.add(&stored.entry);
        if let Some(mut rollup) = self.rollup.get() {
            rollup.add(&stored.entry, size);
            self.rollup.set(Some(rollup));
        }
    }

    fn account_remove(&mut self, stored: &Stored) {
        let size = stored.size();
        self.bytes = self.bytes.saturating_sub(size);
        self.counts.remove(&stored.entry);
        if let Some(mut rollup) = self.rollup.get() {
            rollup.remove(&stored.entry, size);
            self.rollup.set(Some(rollup));
        }
    }

    /// Adjusts totals after an in-place mutation of a savepoint entry's
    /// payload (the only entries ever mutated in place).
    pub(super) fn resize_savepoint_bytes(&mut self, old: usize, new: usize) {
        self.bytes = self.bytes.saturating_sub(old) + new;
        if let Some(mut rollup) = self.rollup.get() {
            rollup.savepoint_bytes = rollup.savepoint_bytes.saturating_sub(old) + new;
            self.rollup.set(Some(rollup));
        }
    }

    /// Computes per-entry-type statistics. O(1) once byte totals are known;
    /// the first call on a freshly deserialized log measures each entry
    /// once and caches the result.
    pub fn stats(&self) -> LogStats {
        let rollup = match self.rollup.get() {
            Some(r) => r,
            None => {
                let mut r = ByteRollup::default();
                for stored in self.stored_iter() {
                    r.add(&stored.entry, stored.size());
                }
                self.rollup.set(Some(r));
                r
            }
        };
        LogStats {
            savepoints: self.counts.savepoints,
            markers: self.counts.markers,
            bos: self.counts.bos,
            ops: self.counts.ops,
            eos: self.counts.eos,
            savepoint_bytes: rollup.savepoint_bytes,
            op_bytes: rollup.op_bytes,
            frame_bytes: rollup.frame_bytes,
            total_bytes: self.bytes,
        }
    }

    /// Checks the SP/BOS/OE/EOS grammar:
    /// `(SP | BOS OE* EOS)*` — operation entries only between BOS and EOS,
    /// step numbers consistent.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptLog`] describing the first violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut open_step: Option<u64> = None;
        for e in self.iter() {
            match e {
                LogEntry::Savepoint(_) => {
                    if open_step.is_some() {
                        return Err(CoreError::CorruptLog(
                            "savepoint inside a step (savepoints only at step ends, §2)".to_owned(),
                        ));
                    }
                }
                LogEntry::BeginOfStep(b) => {
                    if open_step.is_some() {
                        return Err(CoreError::CorruptLog("nested BOS".to_owned()));
                    }
                    open_step = Some(b.step_seq);
                }
                LogEntry::Operation(oe) => {
                    if open_step != Some(oe.step_seq) {
                        return Err(CoreError::CorruptLog(format!(
                            "operation entry for step {} outside its BOS/EOS",
                            oe.step_seq
                        )));
                    }
                }
                LogEntry::EndOfStep(eos) => {
                    if open_step != Some(eos.step_seq) {
                        return Err(CoreError::CorruptLog(format!(
                            "EOS for step {} without matching BOS",
                            eos.step_seq
                        )));
                    }
                    open_step = None;
                }
            }
        }
        if open_step.is_some() {
            return Err(CoreError::CorruptLog("unclosed BOS at log end".to_owned()));
        }
        Ok(())
    }

    /// Rebuilds the segment structure from a flat entry sequence plus the
    /// serialized byte total. Entry sizes are *not* computed here — they
    /// are measured lazily on first need, so deserializing a migrated
    /// agent stays O(n) in decode work alone.
    fn from_entries_with_bytes(entries: Vec<LogEntry>, bytes: usize) -> RollbackLog {
        let mut log = RollbackLog {
            bytes,
            ..RollbackLog::default()
        };
        for entry in entries {
            log.counts.add(&entry);
            let stored = Stored::deferred(entry);
            match &stored.entry {
                LogEntry::Savepoint(sp) => {
                    log.index.entry(sp.id).or_insert(log.segments.len());
                    log.segments.push(Segment::new(stored));
                }
                _ => match log.segments.last_mut() {
                    Some(seg) => seg.tail.push(stored),
                    None => log.head.push(stored),
                },
            }
        }
        // The wire carries no compaction state; anything with savepoint
        // payloads might benefit from a pass.
        log.dirty = !log.segments.is_empty();
        log
    }
}

impl PartialEq for RollbackLog {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// Serializes exactly like the historical flat representation
/// `struct RollbackLog { entries: Vec<LogEntry>, bytes: usize }`, keeping
/// migration snapshots byte-identical across the refactor.
impl Serialize for RollbackLog {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        struct EntrySeq<'a>(&'a RollbackLog);
        impl Serialize for EntrySeq<'_> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
                for entry in self.0.iter() {
                    seq.serialize_element(entry)?;
                }
                seq.end()
            }
        }
        let mut st = serializer.serialize_struct("RollbackLog", 2)?;
        st.serialize_field("entries", &EntrySeq(self))?;
        st.serialize_field("bytes", &self.bytes)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for RollbackLog {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<RollbackLog, D::Error> {
        // Seq-shaped structs only: that is all the wire format produces,
        // and it matches what the workspace's derive generates for every
        // other struct (map-keyed self-describing formats are not used).
        struct LogVisitor;
        impl<'de> Visitor<'de> for LogVisitor {
            type Value = RollbackLog;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("struct RollbackLog")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<RollbackLog, A::Error> {
                let entries: Vec<LogEntry> = seq
                    .next_element()?
                    .ok_or_else(|| serde::de::Error::custom("RollbackLog missing entries"))?;
                let bytes: usize = seq
                    .next_element()?
                    .ok_or_else(|| serde::de::Error::custom("RollbackLog missing bytes"))?;
                Ok(RollbackLog::from_entries_with_bytes(entries, bytes))
            }
        }
        deserializer.deserialize_struct("RollbackLog", &["entries", "bytes"], LogVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::reference::NaiveLog;
    use crate::log::LoggingMode;
    use crate::savepoint::SavepointTable;
    use mar_itinerary::{samples, Cursor};
    use mar_wire::Value;

    fn bos(step: u64) -> LogEntry {
        LogEntry::BeginOfStep(BosEntry {
            node: 1,
            step_seq: step,
            method: format!("m{step}"),
        })
    }

    fn oe(step: u64) -> LogEntry {
        LogEntry::Operation(OpEntry {
            kind: EntryKind::Resource,
            op: CompOp::new("undo", Value::from(step as i64)),
            step_seq: step,
        })
    }

    fn eos(step: u64) -> LogEntry {
        LogEntry::EndOfStep(EosEntry {
            node: 1,
            step_seq: step,
            method: format!("m{step}"),
            has_mixed: false,
            alt_nodes: vec![],
        })
    }

    #[test]
    fn push_pop_size_accounting() {
        let mut log = RollbackLog::new();
        log.push(bos(0));
        log.push(oe(0));
        let sz = log.size_bytes();
        assert!(sz > 0);
        log.push(eos(0));
        assert!(log.size_bytes() > sz);
        log.pop().unwrap();
        assert_eq!(log.size_bytes(), sz);
        log.pop().unwrap();
        log.pop().unwrap();
        assert_eq!(log.size_bytes(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn grammar_validation() {
        let mut log = RollbackLog::new();
        log.push(bos(0));
        log.push(oe(0));
        log.push(eos(0));
        log.validate().unwrap();

        let mut bad = RollbackLog::new();
        bad.push(oe(0));
        assert!(bad.validate().is_err());

        let mut nested = RollbackLog::new();
        nested.push(bos(0));
        nested.push(bos(1));
        assert!(nested.validate().is_err());

        let mut unclosed = RollbackLog::new();
        unclosed.push(bos(0));
        assert!(unclosed.validate().is_err());
    }

    #[test]
    fn pop_eos_type_checked() {
        let mut log = RollbackLog::new();
        log.push(bos(0));
        assert!(matches!(log.pop_eos(), Err(CoreError::CorruptLog(_))));
        // Entry was pushed back.
        assert_eq!(log.len(), 1);
        log.push(eos(0));
        assert_eq!(log.pop_eos().unwrap().step_seq, 0);
    }

    #[test]
    fn last_eos_skips_savepoints() {
        let main = samples::fig6();
        let mut data = DataSpace::new();
        let cursor = Cursor::new(&main);
        let mut table = SavepointTable::new();
        let mut log = RollbackLog::new();
        log.push(bos(0));
        log.push(eos(0));
        table.on_step_committed();
        table.on_enter_sub("S", &mut data, &cursor, &mut log, LoggingMode::State);
        assert_eq!(log.last_eos().unwrap().step_seq, 0);
    }

    #[test]
    fn remove_full_savepoint_upgrades_marker() {
        let main = samples::fig6();
        let mut data = DataSpace::new();
        data.set_sro("v", Value::from(9i64));
        let cursor = Cursor::new(&main);
        let mut table = SavepointTable::new();
        let mut log = RollbackLog::new();
        let a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::State);
        let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::State);
        // B's savepoint is a marker onto A's.
        assert_eq!(log.find_savepoint(b).unwrap().sro, SroPayload::Ref(a));
        log.remove_savepoint(a, &mut data).unwrap();
        match &log.find_savepoint(b).unwrap().sro {
            SroPayload::Full(img) => {
                assert_eq!(img.get("v").and_then(Value::as_i64), Some(9));
            }
            other => panic!("marker not upgraded: {other:?}"),
        }
        // Marker count reflects the upgrade.
        assert_eq!(log.stats().markers, 0);
    }

    #[test]
    fn remove_newest_delta_updates_shadow() {
        let main = samples::fig6();
        let mut data = DataSpace::new();
        data.set_sro("v", Value::from(1i64));
        data.enable_shadow();
        let cursor = Cursor::new(&main);
        let mut table = SavepointTable::new();
        let mut log = RollbackLog::new();
        let _a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::Transition);
        table.on_step_committed();
        data.set_sro("v", Value::from(2i64));
        let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::Transition);
        // Shadow is now S_b (v=2). Removing B (the newest) must roll the
        // shadow back to S_a (v=1).
        log.remove_savepoint(b, &mut data).unwrap();
        assert_eq!(
            data.shadow().unwrap().get("v").and_then(Value::as_i64),
            Some(1)
        );
    }

    #[test]
    fn remove_middle_delta_composes_into_next() {
        let main = samples::fig6();
        let mut data = DataSpace::new();
        data.set_sro("v", Value::from(1i64));
        data.enable_shadow();
        let cursor = Cursor::new(&main);
        let mut table = SavepointTable::new();
        let mut log = RollbackLog::new();
        let _a = table.on_enter_sub("A", &mut data, &cursor, &mut log, LoggingMode::Transition);
        table.on_step_committed();
        data.set_sro("v", Value::from(2i64));
        let b = table.on_enter_sub("B", &mut data, &cursor, &mut log, LoggingMode::Transition);
        table.on_step_committed();
        data.set_sro("v", Value::from(3i64));
        let c = table.on_enter_sub("C", &mut data, &cursor, &mut log, LoggingMode::Transition);
        // Remove B: C's delta (S_c→S_b) must become (S_c→S_a), i.e. v: 3→1.
        log.remove_savepoint(b, &mut data).unwrap();
        match &log.find_savepoint(c).unwrap().sro {
            SroPayload::Delta(d) => {
                assert_eq!(d.changed.get("v").and_then(Value::as_i64), Some(1));
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn remove_absent_savepoint_returns_false() {
        let mut log = RollbackLog::new();
        let mut data = DataSpace::new();
        assert!(!log.remove_savepoint(SavepointId(5), &mut data).unwrap());
    }

    #[test]
    fn log_serializes() {
        let mut log = RollbackLog::new();
        log.push(bos(0));
        log.push(oe(0));
        log.push(eos(0));
        let bytes = mar_wire::to_bytes(&log).unwrap();
        let back: RollbackLog = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.size_bytes(), log.size_bytes());
    }

    // ---- segment-index specific tests --------------------------------------

    fn sp_entry(id: u64, sro: SroPayload) -> LogEntry {
        let main = samples::fig6();
        LogEntry::Savepoint(SpEntry {
            id: SavepointId(id),
            sub_id: None,
            explicit: true,
            cursor: Cursor::new(&main),
            table: SavepointTable::new(),
            sro,
        })
    }

    #[test]
    fn serialization_is_byte_identical_to_reference_model() {
        let mut log = RollbackLog::new();
        let mut naive = NaiveLog::new();
        let entries = [
            sp_entry(0, SroPayload::Full(crate::data::ObjectMap::new())),
            bos(0),
            oe(0),
            eos(0),
            sp_entry(1, SroPayload::Ref(SavepointId(0))),
            bos(1),
            eos(1),
        ];
        for e in entries {
            log.push(e.clone());
            naive.push(e);
        }
        assert_eq!(
            mar_wire::to_bytes(&log).unwrap(),
            mar_wire::to_bytes(&naive).unwrap(),
            "segment-indexed log must serialize exactly like the flat model"
        );
        // And the cross-decode works both ways.
        let as_naive: NaiveLog = mar_wire::from_slice(&mar_wire::to_bytes(&log).unwrap()).unwrap();
        assert_eq!(as_naive.len(), log.len());
        let as_log: RollbackLog =
            mar_wire::from_slice(&mar_wire::to_bytes(&naive).unwrap()).unwrap();
        assert_eq!(as_log, log);
    }

    #[test]
    fn index_tracks_positions_across_removals() {
        let mut log = RollbackLog::new();
        let mut data = DataSpace::new();
        for i in 0..5u64 {
            log.push(sp_entry(i, SroPayload::Full(crate::data::ObjectMap::new())));
            log.push(bos(i));
            log.push(eos(i));
        }
        assert_eq!(log.segment_count(), 5);
        // Remove a middle savepoint: later positions shift.
        assert!(log.remove_savepoint(SavepointId(2), &mut data).unwrap());
        assert_eq!(log.segment_count(), 4);
        for i in [0u64, 1, 3, 4] {
            assert_eq!(
                log.find_savepoint(SavepointId(i)).map(|sp| sp.id),
                Some(SavepointId(i)),
                "savepoint {i} must stay addressable"
            );
        }
        assert!(!log.contains_savepoint(SavepointId(2)));
        // Entry order is preserved: the removed savepoint's tail follows
        // the previous segment.
        let tags: Vec<&str> = log.iter().map(LogEntry::tag).collect();
        assert_eq!(
            tags,
            [
                "SP", "BOS", "EOS", "SP", "BOS", "EOS", "BOS", "EOS", "SP", "BOS", "EOS", "SP",
                "BOS", "EOS"
            ]
        );
        assert_eq!(
            log.savepoint_ids().collect::<Vec<_>>(),
            [
                SavepointId(0),
                SavepointId(1),
                SavepointId(3),
                SavepointId(4)
            ]
        );
    }

    #[test]
    fn top_savepoint_walk() {
        let mut log = RollbackLog::new();
        log.push(bos(0));
        log.push(eos(0));
        assert!(log.top_savepoint().is_none());
        log.push(sp_entry(0, SroPayload::Full(crate::data::ObjectMap::new())));
        log.push(sp_entry(1, SroPayload::Ref(SavepointId(0))));
        assert_eq!(log.top_savepoint().unwrap().id, SavepointId(1));
        assert_eq!(log.pop_top_savepoint().unwrap().id, SavepointId(1));
        assert_eq!(log.pop_top_savepoint().unwrap().id, SavepointId(0));
        assert!(log.pop_top_savepoint().is_none());
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn append_step_logs_frame_and_reports_mixed() {
        let mut log = RollbackLog::new();
        let mixed = log.append_step(
            3,
            7,
            "buy",
            [
                (EntryKind::Resource, CompOp::new("undo", Value::Null)),
                (EntryKind::Mixed, CompOp::new("back", Value::Null)),
            ],
            vec![4],
        );
        assert!(mixed);
        let tags: Vec<&str> = log.iter().map(LogEntry::tag).collect();
        assert_eq!(tags, ["BOS", "OE", "OE", "EOS"]);
        let eos = log.last_eos().unwrap();
        assert!(eos.has_mixed);
        assert_eq!(
            (eos.node, eos.step_seq, eos.alt_nodes.as_slice()),
            (3, 7, &[4u32][..])
        );

        let mut plain = RollbackLog::new();
        assert!(!plain.append_step(1, 0, "m", [], vec![]));
    }

    #[test]
    fn stats_incremental_matches_reference_recompute() {
        let mut log = RollbackLog::new();
        let mut data = DataSpace::new();
        log.push(sp_entry(0, SroPayload::Full(crate::data::ObjectMap::new())));
        log.push(bos(0));
        log.push(oe(0));
        log.push(eos(0));
        log.push(sp_entry(1, SroPayload::Ref(SavepointId(0))));
        // Exercise every mutation path, checking the incremental stats
        // against the from-scratch recompute each time.
        assert_eq!(log.stats(), LogStats::of(&log));
        log.remove_savepoint(SavepointId(0), &mut data).unwrap();
        assert_eq!(log.stats(), LogStats::of(&log));
        log.pop().unwrap();
        assert_eq!(log.stats(), LogStats::of(&log));
        log.push(oe(1));
        assert_eq!(log.stats(), LogStats::of(&log));
        assert_eq!(log.stats().total_bytes, log.size_bytes());
    }

    #[test]
    fn iter_rev_is_exact_reverse_of_iter() {
        let mut log = RollbackLog::new();
        log.push(bos(0));
        log.push(eos(0));
        log.push(sp_entry(0, SroPayload::Full(crate::data::ObjectMap::new())));
        log.push(bos(1));
        log.push(oe(1));
        log.push(eos(1));
        log.push(sp_entry(1, SroPayload::Ref(SavepointId(0))));
        let fwd: Vec<&LogEntry> = log.iter().collect();
        let mut rev: Vec<&LogEntry> = log.iter_rev().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn dirty_bit_tracks_compaction_opportunities() {
        let mut log = RollbackLog::new();
        let mut data = DataSpace::new();
        assert!(!log.is_dirty(), "an empty log has nothing to compact");
        log.push(bos(0));
        log.push(eos(0));
        assert!(!log.is_dirty(), "step frames alone carry no redundancy");
        log.push(sp_entry(0, SroPayload::Full(crate::data::ObjectMap::new())));
        assert!(log.is_dirty(), "a new savepoint payload may be redundant");
        log.compact(None);
        assert!(!log.is_dirty(), "a pass leaves the log clean");
        log.push(bos(1));
        log.push(eos(1));
        assert!(
            !log.is_dirty(),
            "appended frames keep a compacted log clean"
        );
        log.push(sp_entry(1, SroPayload::Full(crate::data::ObjectMap::new())));
        assert!(log.is_dirty());
        log.compact(None);
        assert!(!log.is_dirty());
        log.pop().unwrap();
        assert!(
            !log.is_dirty(),
            "pops never create redundancy below the top"
        );
        log.remove_savepoint(SavepointId(0), &mut data).unwrap();
        assert!(log.is_dirty(), "removal rewrites payloads above it");
        // The wire carries no compaction state: decoded logs with
        // savepoints are conservatively dirty, savepoint-free ones clean.
        log.push(sp_entry(2, SroPayload::Full(crate::data::ObjectMap::new())));
        let bytes = mar_wire::to_bytes(&log).unwrap();
        let back: RollbackLog = mar_wire::from_slice(&bytes).unwrap();
        assert!(back.is_dirty());
        let mut frames_only = RollbackLog::new();
        frames_only.push(bos(0));
        frames_only.push(eos(0));
        let bytes = mar_wire::to_bytes(&frames_only).unwrap();
        let back: RollbackLog = mar_wire::from_slice(&bytes).unwrap();
        assert!(!back.is_dirty());
    }

    /// The atomic size caches keep the log `Send + Sync`, which the sharded
    /// simulator's worker threads rely on.
    #[test]
    fn rollback_log_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RollbackLog>();
    }

    #[test]
    fn deserialized_log_measures_lazily_but_correctly() {
        let mut log = RollbackLog::new();
        log.push(bos(0));
        log.push(oe(0));
        log.push(eos(0));
        log.push(sp_entry(0, SroPayload::Full(crate::data::ObjectMap::new())));
        let bytes = mar_wire::to_bytes(&log).unwrap();
        let mut back: RollbackLog = mar_wire::from_slice(&bytes).unwrap();
        // Counts are exact immediately; byte totals carried by the wire.
        assert_eq!(back.len(), 4);
        assert_eq!(back.size_bytes(), log.size_bytes());
        // Popping must subtract the correct (lazily measured) sizes all the
        // way down to zero.
        while back.pop().is_some() {}
        assert_eq!(back.size_bytes(), 0);
        // And stats on a fresh copy measures everything once.
        let back2: RollbackLog = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!(back2.stats(), LogStats::of(&back2));
    }
}
