//! Platform wire messages and agent reports.

use mar_core::{AgentId, AgentRecord};
use mar_simnet::NodeId;
use mar_txn::TxMsg;
use serde::{Deserialize, Serialize};

/// Messages exchanged between `mole` services (and injected externally).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MoleMsg {
    /// Launch an agent: enqueue the record at this node (external
    /// injection from the agent's owner).
    Launch {
        /// Serialized [`AgentRecord`].
        record: mar_wire::Bytes,
    },
    /// Distributed-commit protocol traffic.
    Tx {
        /// Sending node (participant/coordinator identity).
        from: NodeId,
        /// The protocol message.
        msg: TxMsg,
    },
    /// A copy of a finished agent's report, sent to its home node. The home
    /// node persists it, posts a completion event to its driver mailbox,
    /// and answers with [`MoleMsg::ReportAck`]; the completing node keeps
    /// the report in a stable outbox and retransmits until acked, so
    /// completion events reach the home mailbox exactly once despite
    /// crashes and lost messages.
    Report {
        /// Serialized [`AgentReport`].
        report: mar_wire::Bytes,
    },
    /// Home-node acknowledgement that an agent's report was persisted and
    /// its completion event posted to the driver mailbox.
    ReportAck {
        /// The acknowledged agent.
        agent: AgentId,
    },
}

impl MoleMsg {
    /// Encodes for the wire.
    ///
    /// # Panics
    ///
    /// Panics on codec failure (messages are always encodable).
    pub fn encode(&self) -> Vec<u8> {
        mar_wire::to_bytes(self).expect("mole message encodes")
    }

    /// Decodes from the wire.
    ///
    /// # Errors
    ///
    /// Codec errors for malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, mar_wire::WireError> {
        mar_wire::from_slice(bytes)
    }
}

/// Final outcome of an agent run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReportOutcome {
    /// The whole itinerary committed.
    Completed,
    /// The agent gave up (reason attached).
    Failed(String),
}

/// The report written when an agent finishes, stored at the completing node
/// and copied to the agent's home node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentReport {
    /// The agent.
    pub id: AgentId,
    /// How it ended.
    pub outcome: ReportOutcome,
    /// Virtual time of completion (microseconds).
    pub finished_at_us: u64,
    /// Committed steps over the whole run.
    pub steps_committed: u64,
    /// The node the agent finished on — where its `done/<id>` record (and,
    /// for remote homes, the report outbox entry) live, so the driver can
    /// garbage-collect them after draining the report.
    pub finished_node: u32,
    /// The final agent record (data spaces, cursor, log).
    pub record: AgentRecord,
}

impl AgentReport {
    /// Encodes for storage/transfer.
    ///
    /// # Panics
    ///
    /// Panics on codec failure (reports are always encodable).
    pub fn encode(&self) -> Vec<u8> {
        mar_wire::to_bytes(self).expect("report encodes")
    }

    /// Decodes from storage.
    ///
    /// # Errors
    ///
    /// Codec errors for malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, mar_wire::WireError> {
        mar_wire::from_slice(bytes)
    }

    /// Decodes only the agent id from a serialized report — what the
    /// commit/delivery bookkeeping needs — without touching the outcome,
    /// the record, or its rollback log.
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that do not start with a report.
    pub fn peek_id(bytes: &[u8]) -> Result<AgentId, mar_wire::WireError> {
        struct Peek(AgentId);
        impl<'de> Deserialize<'de> for Peek {
            fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
                struct V;
                impl<'de> serde::de::Visitor<'de> for V {
                    type Value = Peek;

                    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        f.write_str("an agent report prefix")
                    }

                    fn visit_seq<A: serde::de::SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Peek, A::Error> {
                        use serde::de::Error;
                        let id: AgentId = seq
                            .next_element()?
                            .ok_or_else(|| A::Error::custom("truncated report"))?;
                        Ok(Peek(id))
                    }
                }
                de.deserialize_struct("AgentReport", &["id"], V)
            }
        }
        let (peek, _) = mar_wire::from_slice_prefix::<Peek>(bytes)?;
        Ok(peek.0)
    }

    /// Decodes only the final record's data space from a serialized report
    /// — what a money audit needs — skipping the record's itinerary,
    /// cursor, savepoint table, and rollback log entirely
    /// ([`mar_core::AgentRecord::peek_data`] applied inside the report).
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that do not start with a report.
    pub fn peek_record_data(bytes: &[u8]) -> Result<mar_core::DataSpace, mar_wire::WireError> {
        struct Peek(mar_core::DataSpace);
        impl<'de> Deserialize<'de> for Peek {
            fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
                struct V;
                impl<'de> serde::de::Visitor<'de> for V {
                    type Value = Peek;

                    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        f.write_str("an agent report prefix")
                    }

                    fn visit_seq<A: serde::de::SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Peek, A::Error> {
                        use serde::de::Error;
                        let missing = || A::Error::custom("truncated report");
                        let _id: AgentId = seq.next_element()?.ok_or_else(missing)?;
                        let _outcome: ReportOutcome = seq.next_element()?.ok_or_else(missing)?;
                        let _finished: u64 = seq.next_element()?.ok_or_else(missing)?;
                        let _steps: u64 = seq.next_element()?.ok_or_else(missing)?;
                        let _node: u32 = seq.next_element()?.ok_or_else(missing)?;
                        // The record is the last field read: its own trailing
                        // fields (and ours) stay untouched in the buffer.
                        let record: mar_core::RecordDataPeek =
                            seq.next_element()?.ok_or_else(missing)?;
                        Ok(Peek(record.data))
                    }
                }
                de.deserialize_struct(
                    "AgentReport",
                    &[
                        "id",
                        "outcome",
                        "finished_at_us",
                        "steps_committed",
                        "finished_node",
                        "record",
                    ],
                    V,
                )
            }
        }
        let (peek, _) = mar_wire::from_slice_prefix::<Peek>(bytes)?;
        Ok(peek.0)
    }
}

/// Payload of a remote RCE branch: which agent is being compensated and the
/// resource compensation entries to execute (§4.4.1: "send (TransactionID,
/// RCEList) to resourceNode").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RceList {
    /// The agent being rolled back.
    pub agent: AgentId,
    /// The step being compensated.
    pub step_seq: u64,
    /// The resource compensation entries, in execution order.
    pub ops: Vec<mar_core::log::OpEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mole_msgs_roundtrip() {
        let msgs = vec![
            MoleMsg::Launch {
                record: vec![1, 2, 3].into(),
            },
            MoleMsg::Tx {
                from: NodeId(3),
                msg: TxMsg::Ack {
                    txn: mar_txn::TxnId::new(NodeId(1), 7),
                },
            },
            MoleMsg::Report {
                report: vec![9].into(),
            },
        ];
        for m in msgs {
            assert_eq!(MoleMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn report_peek_reads_only_the_data_space() {
        let mut data = mar_core::DataSpace::new();
        data.set_wro("wallet", mar_wire::Value::from(9i64));
        let record = mar_core::AgentRecord::new(
            AgentId(5),
            "t",
            1,
            data,
            mar_itinerary::samples::fig6(),
            mar_core::LoggingMode::State,
            mar_core::planner::RollbackMode::Optimized,
        );
        let report = AgentReport {
            id: AgentId(5),
            outcome: ReportOutcome::Completed,
            finished_at_us: 77,
            steps_committed: 3,
            finished_node: 2,
            record: record.clone(),
        };
        let bytes = report.encode();
        let peeked = AgentReport::peek_record_data(&bytes).unwrap();
        assert_eq!(peeked, record.data);
        assert!(AgentReport::peek_record_data(&[0xff]).is_err());
        assert_eq!(AgentReport::peek_id(&bytes).unwrap(), AgentId(5));
        assert!(AgentReport::peek_id(&[0xff]).is_err());
    }

    #[test]
    fn rce_list_roundtrips() {
        let list = RceList {
            agent: AgentId(4),
            step_seq: 2,
            ops: vec![mar_core::log::OpEntry {
                kind: mar_core::comp::EntryKind::Resource,
                op: mar_core::comp::CompOp::new("bank.undo_transfer", mar_wire::Value::Null),
                step_seq: 2,
            }],
        };
        let bytes = mar_wire::to_bytes(&list).unwrap();
        let back: RceList = mar_wire::from_slice(&bytes).unwrap();
        assert_eq!(back, list);
    }
}
