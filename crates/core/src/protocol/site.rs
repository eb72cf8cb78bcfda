//! One message at one engine (`Site`): the dispatch to the per-primitive
//! handlers, which are `Site` methods in the primitives' own files, and the one
//! place that decides whether a core request is served at this engine or
//! forwarded to the variable's master (`Site::core_request`).

use super::{Engine, EngineMsg, Outcome, ProtocolConfig};
use crate::components::Grantee;
use crate::request::{BarrierScope, SyncRequest};
use syncron_sim::{GlobalCoreId, UnitId};

/// Where one message is processed: the engine, the variable's slot in its
/// component tables, and the outcomes the message produces. The per-primitive
/// handlers are methods on it, in the primitives' own files.
pub(super) struct Site<'a> {
    pub(super) config: &'a ProtocolConfig,
    pub(super) engine: &'a mut Engine,
    /// The processing engine's unit.
    pub(super) unit: UnitId,
    /// The variable's master engine.
    pub(super) master: UnitId,
    pub(super) slot: usize,
    /// Whether locks run the MCS queue protocol.
    pub(super) mcs: bool,
    pub(super) out: &'a mut Vec<Outcome>,
}

impl Site<'_> {
    /// Processes one message at this engine.
    pub(super) fn handle(&mut self, msg: EngineMsg) {
        match msg {
            EngineMsg::CoreReq {
                core,
                req,
                direct,
                fallback,
            } => self.core_request(core, req, direct || fallback),
            EngineMsg::LockAcquireGlobal { from, var } => {
                self.master_lock_acquire(var, Grantee::Unit(from))
            }
            EngineMsg::LockReleaseGlobal { var } => self.master_lock_release(var),
            EngineMsg::LockGrantGlobal { var } => self.lock_grant_global(var),
            EngineMsg::BarrierArriveGlobal {
                from,
                var,
                count,
                participants,
            } => self.barrier_arrive_global(from, var, count, participants),
            EngineMsg::BarrierDepartGlobal { var } => self.barrier_depart_global(var),
            EngineMsg::McsEnqueue { core, seq, var } => self.mcs_master_enqueue(var, core, seq),
            EngineMsg::McsLink {
                pred,
                pred_seq,
                succ,
                var,
            } => self.mcs_link(pred, pred_seq, succ, var),
            EngineMsg::McsReleaseTail { core, seq, var } => {
                self.mcs_master_release_tail(var, core, seq)
            }
            EngineMsg::McsNodeFree { core, seq, var } => self.mcs_node_free(core, seq, var),
        }
    }

    /// Processes `core`'s request: the one place that decides whether it is
    /// served at this engine or forwarded to the variable's master as a direct
    /// request. A `direct` request is served here, at the master level.
    fn core_request(&mut self, core: GlobalCoreId, req: SyncRequest, direct: bool) {
        match req {
            SyncRequest::LockAcquire { .. } | SyncRequest::LockRelease { .. } if self.mcs => {
                self.mcs_request(core, req)
            }
            SyncRequest::LockAcquire { var } => self.lock_acquire(core, var, direct),
            SyncRequest::LockRelease { var } if direct || self.holds_local_lock(core) => {
                self.lock_release(var, direct)
            }
            SyncRequest::LockRelease { var } => {
                // The core's acquire was granted at the master level (ST
                // overflow redirection), so its release belongs there too, and
                // its traffic is classified the same way.
                self.drop_untracked_st_entry(var);
                self.forward(core, req, true)
            }
            SyncRequest::BarrierWait {
                var,
                participants,
                scope,
            } if direct
                || scope == BarrierScope::WithinUnit
                || participants == self.config.total_cores() =>
            {
                self.barrier_wait(core, var, participants, scope, direct)
            }
            // A partial across-unit barrier: one-level communication (see
            // `barrier_wait`).
            SyncRequest::BarrierWait { .. } => self.forward(core, req, false),
            // Semaphores and condition variables are served at the master only.
            _ if !direct && self.unit != self.master => self.forward(core, req, false),
            SyncRequest::SemWait { initial, .. } => self.sem_wait(core, initial),
            SyncRequest::SemPost { .. } => self.sem_post(),
            SyncRequest::CondWait { lock, .. } => self.cond_wait(core, lock),
            SyncRequest::CondSignal { .. } => self.cond_signal(core),
            SyncRequest::CondBroadcast { .. } => self.cond_broadcast(),
        }
    }

    /// Forwards `core`'s request to the variable's master as a direct request;
    /// `overflow` classifies the hop's traffic.
    fn forward(&mut self, core: GlobalCoreId, req: SyncRequest, overflow: bool) {
        self.out.push(Outcome::Send {
            to: self.master,
            msg: EngineMsg::direct(core, req, false),
            overflow,
        });
    }

    /// Sends `msg` to the variable's master engine as ordinary traffic.
    pub(super) fn send_to_master(&mut self, msg: EngineMsg) {
        self.out.push(Outcome::send(self.master, msg));
    }
}
