//! The MCS-style hardware queue lock (the `Mcs` mechanism). The master engine
//! keeps only the queue's tail pointer; each waiter's queue node lives at the
//! waiter's own engine, and a release hands the lock straight to the linked
//! successor, so there is no broadcast wake and no ownership bouncing. Node
//! instances carry a sequence number, so a stale link or tail swap for a
//! re-queued core is recognized and ignored.

use super::{EngineMsg, Outcome, Site};
use crate::components::McsRelease;
use crate::request::SyncRequest;
use syncron_sim::{Addr, GlobalCoreId};

impl Site<'_> {
    /// A core's acquire or release, at the core's own engine.
    pub(super) fn mcs_request(&mut self, core: GlobalCoreId, req: SyncRequest) {
        let var = req.var();
        let nodes = self.engine.vars.mcs_nodes_mut(self.slot);
        if let SyncRequest::LockAcquire { .. } = req {
            // Claim a queue node here, then swap the instance into the
            // master's tail pointer.
            nodes.ensure(self.config.cores_per_unit);
            let seq = nodes.enqueue(core.core.index());
            return self.at_master(EngineMsg::McsEnqueue { core, seq, var });
        }
        match nodes.release(core.core.index()) {
            McsRelease::Handoff(succ) => {
                // O(1) handoff: the successor was already linked, so the
                // grant goes straight to it without a master round-trip.
                self.cleanup_nodes(var);
                self.out.push(Outcome::Complete { core: succ });
            }
            // No successor linked yet: ask the master to swap the tail back
            // to free. If someone enqueued meanwhile, the master ignores this
            // and the in-flight link hands off.
            McsRelease::TailRace(seq) => {
                self.at_master(EngineMsg::McsReleaseTail { core, seq, var })
            }
        }
    }

    /// Processes `msg` here if this engine is the variable's master, else sends
    /// it there.
    fn at_master(&mut self, msg: EngineMsg) {
        if self.unit == self.master {
            self.handle(msg);
        } else {
            self.send_to_master(msg);
        }
    }

    /// Master: swaps node instance `(core, seq)` into the tail pointer. A free
    /// lock grants immediately; otherwise the previous tail's engine is told
    /// to link the new waiter behind it.
    pub(super) fn mcs_master_enqueue(&mut self, var: Addr, core: GlobalCoreId, seq: u32) {
        let tail = self.engine.vars.mcs_tail_mut(self.slot);
        self.out.push(match tail.tail.replace((core, seq)) {
            None => Outcome::Complete { core },
            Some((prev, prev_seq)) => Outcome::send(
                prev.unit,
                EngineMsg::McsLink {
                    pred: prev,
                    pred_seq: prev_seq,
                    succ: core,
                    var,
                },
            ),
        });
    }

    /// At the predecessor's engine: links `succ` behind instance
    /// `(pred, pred_seq)`.
    pub(super) fn mcs_link(
        &mut self,
        pred: GlobalCoreId,
        pred_seq: u32,
        succ: GlobalCoreId,
        var: Addr,
    ) {
        debug_assert_eq!(
            pred.unit, self.unit,
            "MCS link delivered off the pred's engine"
        );
        let nodes = self.engine.vars.mcs_nodes_mut(self.slot);
        if let Some(granted) = nodes.link(pred.core.index(), pred_seq, succ) {
            // The predecessor had already released: the link completes the
            // handoff to the successor directly.
            self.out.push(Outcome::Complete { core: granted });
            self.cleanup_nodes(var);
        }
    }

    /// Master: a holder with no linked successor asks to swap the tail back to
    /// free. Valid only while instance `(core, seq)` is still the tail —
    /// otherwise a successor enqueued meanwhile and the in-flight link performs
    /// the handoff, so the stale request is ignored.
    pub(super) fn mcs_master_release_tail(&mut self, var: Addr, core: GlobalCoreId, seq: u32) {
        let is_tail = self
            .engine
            .vars
            .mcs_tail_ref(self.slot)
            .is_some_and(|t| t.tail == Some((core, seq)));
        if is_tail {
            self.engine.vars.remove_mcs_tail(self.slot);
            self.engine.release_st(var);
            self.out.push(Outcome::send(
                core.unit,
                EngineMsg::McsNodeFree { core, seq, var },
            ));
        }
    }

    /// At the waiter's engine: the master confirmed the tail swap, so the node
    /// instance `(core, seq)` is reaped.
    pub(super) fn mcs_node_free(&mut self, core: GlobalCoreId, seq: u32, var: Addr) {
        debug_assert_eq!(
            core.unit, self.unit,
            "MCS node-free delivered off the waiter's engine"
        );
        let nodes = self.engine.vars.mcs_nodes_mut(self.slot);
        if nodes.reap(core.core.index(), seq) {
            self.cleanup_nodes(var);
        }
    }

    /// Frees the waiter-side node component (and its ST entry) once the last
    /// node instance for `var` at this engine is gone.
    fn cleanup_nodes(&mut self, var: Addr) {
        if self
            .engine
            .vars
            .mcs_nodes_ref(self.slot)
            .is_some_and(|n| n.active == 0)
        {
            self.engine.vars.remove_mcs_nodes(self.slot);
            self.engine.release_st(var);
        }
    }
}
