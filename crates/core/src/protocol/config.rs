//! The protocol mechanism's configuration: what it is built from, and what
//! the engines derive from it and the geometry.

use crate::mechanism::{MechanismKind, MechanismParams};
use syncron_sim::time::{Freq, Time};

/// What kind of hardware processes messages at each unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineBackend {
    /// A Synchronization Engine with a Synchronization Table (SynCron).
    SyncronSe,
    /// An NDP core acting as a server, keeping state in memory behind its cache
    /// (Central / Hier).
    ServerCore,
}

/// Configuration of a [`ProtocolMechanism`](super::ProtocolMechanism): the
/// [`MechanismParams`] it is built from plus what the engine derives from them
/// and the geometry. Where requests are served is the policy's decision, not
/// the configuration's.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolConfig {
    /// The mechanism parameters this configuration was built from.
    pub params: MechanismParams,
    /// Number of NDP units.
    pub units: usize,
    /// Number of NDP cores per unit.
    pub cores_per_unit: usize,
    /// Backend (SE or server core).
    pub backend: EngineBackend,
    /// SE message service time (Table 5: 12 cycles at 1 GHz).
    pub se_service: Time,
    /// Instruction overhead of a server core handling one message (Central / Hier).
    pub server_service: Time,
}

impl ProtocolConfig {
    /// Configuration for `params` on a `units × cores_per_unit` system.
    ///
    /// # Panics
    ///
    /// Panics if `params.kind` is [`MechanismKind::Ideal`], which is not a
    /// message-passing protocol (use [`crate::ideal::IdealMechanism`]).
    pub fn new(params: MechanismParams, units: usize, cores_per_unit: usize) -> Self {
        let backend = match params.kind {
            // SynCron, its flat ablation and MCS (SynCron with the queue-lock
            // policy) serve requests in Synchronization Engines.
            MechanismKind::SynCron | MechanismKind::SynCronFlat | MechanismKind::Mcs => {
                EngineBackend::SyncronSe
            }
            MechanismKind::Central | MechanismKind::Hier | MechanismKind::Adaptive => {
                EngineBackend::ServerCore
            }
            MechanismKind::Ideal => panic!("Ideal is not a protocol mechanism"),
        };
        ProtocolConfig {
            params,
            units,
            cores_per_unit,
            backend,
            // Table 5 / Section 5: each message is served in 12 SE cycles at 1 GHz.
            se_service: Freq::ghz(1.0).cycles_to_ps(12),
            // A server core spends ~30 instructions of control code per message at
            // 2.5 GHz, before its memory accesses to the synchronization variable.
            server_service: Freq::ghz(2.5).cycles_to_ps(30),
        }
    }

    /// Number of NDP cores in the whole system.
    pub(super) fn total_cores(&self) -> u32 {
        (self.units * self.cores_per_unit) as u32
    }
}
