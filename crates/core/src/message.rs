//! Message encoding and opcodes.
//!
//! Section 4.1.2 of the paper defines the message exchanged between NDP cores and
//! Synchronization Engines: a 64-bit address, a 6-bit opcode, a 6-bit core ID and a
//! 64-bit `MessageInfo` field — 140 bits in total. Global messages between SEs
//! additionally carry the sender SE's global ID, and the ST entry that processes them
//! is 149 bits wide (Figure 6). Table 3 lists the full opcode set, including the
//! overflow opcodes used by the hardware-only overflow management scheme.
//!
//! Beyond Table 3, this reproduction adds three `cond_signal_nack` reply opcodes for
//! the signal-coalescing extension (see [`crate::protocol`]): when a `cond_signal`
//! reaches the serving engine, finds no queued waiter and cannot be banked as a
//! pending signal, the engine replies with a NACK whose `MessageInfo` field carries a
//! backoff delay hint; the signaling core stalls for that delay before re-issuing.
//! The extended set still fits the 6-bit opcode field.

use crate::request::PrimitiveKind;
use syncron_sim::{Addr, GlobalCoreId, UnitId};

/// Whether a message travels between a core and its local SE, or between SEs of
/// different NDP units.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MessageScope {
    /// Core ↔ local SE, inside one NDP unit.
    Local,
    /// SE ↔ Master SE, across NDP units.
    Global,
    /// Local SE ↔ Master SE during ST overflow (Section 4.3.2).
    Overflow,
}

/// The complete message opcode set of Table 3.
#[allow(missing_docs)] // the variant names are the paper's opcode names
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SyncOpcode {
    // Locks
    LockAcquireGlobal,
    LockAcquireLocal,
    LockReleaseGlobal,
    LockReleaseLocal,
    LockGrantGlobal,
    LockGrantLocal,
    LockAcquireOverflow,
    LockReleaseOverflow,
    LockGrantOverflow,
    // Barriers
    BarrierWaitGlobal,
    BarrierWaitLocalWithinUnit,
    BarrierWaitLocalAcrossUnits,
    BarrierDepartGlobal,
    BarrierDepartLocal,
    BarrierWaitOverflow,
    BarrierDepartureOverflow,
    // Semaphores
    SemWaitGlobal,
    SemWaitLocal,
    SemGrantGlobal,
    SemGrantLocal,
    SemPostGlobal,
    SemPostLocal,
    SemWaitOverflow,
    SemGrantOverflow,
    SemPostOverflow,
    // Condition variables
    CondWaitGlobal,
    CondWaitLocal,
    CondSignalGlobal,
    CondSignalLocal,
    CondBroadGlobal,
    CondBroadLocal,
    CondGrantGlobal,
    CondGrantLocal,
    CondWaitOverflow,
    CondSignalOverflow,
    CondBroadOverflow,
    CondGrantOverflow,
    // Other
    DecreaseIndexingCounter,
    // Extension beyond Table 3: NACK-with-delay replies to a signaler whose
    // cond_signal could not be delivered or banked (signal coalescing / backoff).
    CondSignalNackLocal,
    CondSignalNackGlobal,
    CondSignalNackOverflow,
}

impl SyncOpcode {
    /// Every opcode: the 38 of Table 3 in the paper's order, followed by the
    /// 3 signal-coalescing extension opcodes.
    pub const ALL: [SyncOpcode; 41] = [
        SyncOpcode::LockAcquireGlobal,
        SyncOpcode::LockAcquireLocal,
        SyncOpcode::LockReleaseGlobal,
        SyncOpcode::LockReleaseLocal,
        SyncOpcode::LockGrantGlobal,
        SyncOpcode::LockGrantLocal,
        SyncOpcode::LockAcquireOverflow,
        SyncOpcode::LockReleaseOverflow,
        SyncOpcode::LockGrantOverflow,
        SyncOpcode::BarrierWaitGlobal,
        SyncOpcode::BarrierWaitLocalWithinUnit,
        SyncOpcode::BarrierWaitLocalAcrossUnits,
        SyncOpcode::BarrierDepartGlobal,
        SyncOpcode::BarrierDepartLocal,
        SyncOpcode::BarrierWaitOverflow,
        SyncOpcode::BarrierDepartureOverflow,
        SyncOpcode::SemWaitGlobal,
        SyncOpcode::SemWaitLocal,
        SyncOpcode::SemGrantGlobal,
        SyncOpcode::SemGrantLocal,
        SyncOpcode::SemPostGlobal,
        SyncOpcode::SemPostLocal,
        SyncOpcode::SemWaitOverflow,
        SyncOpcode::SemGrantOverflow,
        SyncOpcode::SemPostOverflow,
        SyncOpcode::CondWaitGlobal,
        SyncOpcode::CondWaitLocal,
        SyncOpcode::CondSignalGlobal,
        SyncOpcode::CondSignalLocal,
        SyncOpcode::CondBroadGlobal,
        SyncOpcode::CondBroadLocal,
        SyncOpcode::CondGrantGlobal,
        SyncOpcode::CondGrantLocal,
        SyncOpcode::CondWaitOverflow,
        SyncOpcode::CondSignalOverflow,
        SyncOpcode::CondBroadOverflow,
        SyncOpcode::CondGrantOverflow,
        SyncOpcode::DecreaseIndexingCounter,
        SyncOpcode::CondSignalNackLocal,
        SyncOpcode::CondSignalNackGlobal,
        SyncOpcode::CondSignalNackOverflow,
    ];

    /// The number of bits needed to encode an opcode. The paper uses a 6-bit field,
    /// which covers all 38 paper opcodes plus the 3 extension opcodes.
    pub const OPCODE_BITS: u32 = 6;

    /// A dense numeric encoding of the opcode (fits in [`Self::OPCODE_BITS`]).
    pub fn encode(self) -> u8 {
        Self::ALL.iter().position(|&op| op == self).unwrap_or(0) as u8
    }

    /// Decodes an opcode produced by [`SyncOpcode::encode`].
    pub fn decode(code: u8) -> Option<SyncOpcode> {
        Self::ALL.get(code as usize).copied()
    }

    /// The primitive this opcode belongs to (`None` for `decrease_indexing_counter`).
    pub fn primitive(self) -> Option<PrimitiveKind> {
        use SyncOpcode::*;
        Some(match self {
            LockAcquireGlobal | LockAcquireLocal | LockReleaseGlobal | LockReleaseLocal
            | LockGrantGlobal | LockGrantLocal | LockAcquireOverflow | LockReleaseOverflow
            | LockGrantOverflow => PrimitiveKind::Lock,
            BarrierWaitGlobal
            | BarrierWaitLocalWithinUnit
            | BarrierWaitLocalAcrossUnits
            | BarrierDepartGlobal
            | BarrierDepartLocal
            | BarrierWaitOverflow
            | BarrierDepartureOverflow => PrimitiveKind::Barrier,
            SemWaitGlobal | SemWaitLocal | SemGrantGlobal | SemGrantLocal | SemPostGlobal
            | SemPostLocal | SemWaitOverflow | SemGrantOverflow | SemPostOverflow => {
                PrimitiveKind::Semaphore
            }
            CondWaitGlobal
            | CondWaitLocal
            | CondSignalGlobal
            | CondSignalLocal
            | CondBroadGlobal
            | CondBroadLocal
            | CondGrantGlobal
            | CondGrantLocal
            | CondWaitOverflow
            | CondSignalOverflow
            | CondBroadOverflow
            | CondGrantOverflow
            | CondSignalNackLocal
            | CondSignalNackGlobal
            | CondSignalNackOverflow => PrimitiveKind::CondVar,
            DecreaseIndexingCounter => return None,
        })
    }

    /// Whether this opcode is used on the global (SE ↔ Master SE) level.
    pub fn is_global(self) -> bool {
        use SyncOpcode::*;
        matches!(
            self,
            LockAcquireGlobal
                | LockReleaseGlobal
                | LockGrantGlobal
                | BarrierWaitGlobal
                | BarrierDepartGlobal
                | SemWaitGlobal
                | SemGrantGlobal
                | SemPostGlobal
                | CondWaitGlobal
                | CondSignalGlobal
                | CondBroadGlobal
                | CondGrantGlobal
                | CondSignalNackGlobal
        )
    }

    /// Whether this opcode is part of the overflow protocol (Section 4.3.2).
    pub fn is_overflow(self) -> bool {
        use SyncOpcode::*;
        matches!(
            self,
            LockAcquireOverflow
                | LockReleaseOverflow
                | LockGrantOverflow
                | BarrierWaitOverflow
                | BarrierDepartureOverflow
                | SemWaitOverflow
                | SemGrantOverflow
                | SemPostOverflow
                | CondWaitOverflow
                | CondSignalOverflow
                | CondBroadOverflow
                | CondGrantOverflow
                | CondSignalNackOverflow
                | DecreaseIndexingCounter
        )
    }
}

/// The identity of a message sender.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sender {
    /// An NDP core (identified by its global ID; the wire format carries the local ID).
    Core(GlobalCoreId),
    /// A Synchronization Engine (identified by its NDP unit).
    Engine(UnitId),
}

/// A synchronization message (Figure 5 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SyncMessage {
    /// Address of the synchronization variable (64 bits on the wire).
    pub addr: Addr,
    /// Message opcode (6 bits on the wire).
    pub opcode: SyncOpcode,
    /// Sender (6-bit core/SE ID on the wire).
    pub sender: Sender,
    /// `MessageInfo`: number of barrier participants, initial semaphore resources, or
    /// the address of the lock associated with a condition variable (64 bits).
    pub info: u64,
}

impl SyncMessage {
    /// Size in bits of a local (core ↔ SE) message: 64 + 6 + 6 + 64 = 140 bits.
    pub const LOCAL_BITS: u32 = 140;
    /// Size in bits of a global (SE ↔ Master SE) message, which also carries the
    /// sender SE's global ID and overflow bookkeeping: 149 bits (Figure 6).
    pub const GLOBAL_BITS: u32 = 149;

    /// Size of the message in bytes, rounded up to whole bytes, for traffic accounting.
    pub fn wire_bytes(scope: MessageScope) -> u64 {
        let bits = match scope {
            MessageScope::Local => Self::LOCAL_BITS,
            MessageScope::Global | MessageScope::Overflow => Self::GLOBAL_BITS,
        };
        bits.div_ceil(8) as u64
    }

    /// The scope implied by the message's opcode.
    pub fn scope(&self) -> MessageScope {
        if self.opcode.is_overflow() {
            MessageScope::Overflow
        } else if self.opcode.is_global() {
            MessageScope::Global
        } else {
            MessageScope::Local
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_sim::CoreId;

    #[test]
    fn opcode_count_matches_table3_plus_extension() {
        // Table 3 lists 9 lock + 7 barrier + 9 semaphore + 12 condvar + 1 other opcodes
        // (38); the signal-coalescing extension adds 3 cond_signal_nack replies.
        assert_eq!(SyncOpcode::ALL.len(), 38 + 3);
        // The paper's opcodes keep their Table 3 positions (stable encoding prefix).
        assert_eq!(SyncOpcode::ALL[37], SyncOpcode::DecreaseIndexingCounter);
    }

    #[test]
    fn opcodes_fit_in_six_bits() {
        for op in SyncOpcode::ALL {
            assert!(u32::from(op.encode()) < (1 << SyncOpcode::OPCODE_BITS));
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        for op in SyncOpcode::ALL {
            assert_eq!(SyncOpcode::decode(op.encode()), Some(op));
        }
        assert_eq!(SyncOpcode::decode(200), None);
    }

    #[test]
    fn primitives_partition_the_opcodes() {
        let locks = SyncOpcode::ALL
            .iter()
            .filter(|o| o.primitive() == Some(PrimitiveKind::Lock))
            .count();
        let barriers = SyncOpcode::ALL
            .iter()
            .filter(|o| o.primitive() == Some(PrimitiveKind::Barrier))
            .count();
        let sems = SyncOpcode::ALL
            .iter()
            .filter(|o| o.primitive() == Some(PrimitiveKind::Semaphore))
            .count();
        let conds = SyncOpcode::ALL
            .iter()
            .filter(|o| o.primitive() == Some(PrimitiveKind::CondVar))
            .count();
        // 12 paper condvar opcodes + the 3 NACK extension opcodes.
        assert_eq!((locks, barriers, sems, conds), (9, 7, 9, 15));
    }

    #[test]
    fn message_sizes_match_paper() {
        assert_eq!(SyncMessage::LOCAL_BITS, 140);
        assert_eq!(SyncMessage::GLOBAL_BITS, 149);
        assert_eq!(SyncMessage::wire_bytes(MessageScope::Local), 18);
        assert_eq!(SyncMessage::wire_bytes(MessageScope::Global), 19);
    }

    #[test]
    fn scope_derived_from_opcode() {
        let core = Sender::Core(GlobalCoreId::new(UnitId(0), CoreId(3)));
        let local = SyncMessage {
            addr: Addr(0x40),
            opcode: SyncOpcode::LockAcquireLocal,
            sender: core,
            info: 0,
        };
        assert_eq!(local.scope(), MessageScope::Local);
        let global = SyncMessage {
            opcode: SyncOpcode::LockAcquireGlobal,
            sender: Sender::Engine(UnitId(1)),
            ..local
        };
        assert_eq!(global.scope(), MessageScope::Global);
        let overflow = SyncMessage {
            opcode: SyncOpcode::LockAcquireOverflow,
            ..global
        };
        assert_eq!(overflow.scope(), MessageScope::Overflow);
    }

    #[test]
    fn global_and_overflow_sets_are_disjoint() {
        for op in SyncOpcode::ALL {
            assert!(!(op.is_global() && op.is_overflow()), "{op:?}");
        }
    }
}
