//! Synchronization *policies*: the per-mechanism decision layer.
//!
//! The protocol engine in [`crate::protocol`] owns all mechanics — message
//! delivery, engine serialization, the synchronization table, and the shared
//! per-primitive state in [`crate::components::ComponentTables`]. What differs
//! between mechanism kinds is only a handful of *decisions*, captured here as
//! the [`SyncPolicy`] trait:
//!
//! - **where** a request is served ([`SyncPolicy::topology`] /
//!   [`SyncPolicy::master_of`]): hierarchically via the requester's local
//!   engine, or flat, straight at the variable's master engine;
//! - **how** locks arbitrate ([`SyncPolicy::lock_variant`]): the
//!   ownership-passing local/global protocol, or the MCS-style hardware queue
//!   with per-waiter next pointers and O(1) handoff;
//! - **whether the policy adapts** ([`SyncPolicy::observe_contention`]):
//!   stateful policies watch master-side queue depths and may re-decide
//!   per variable at runtime.
//!
//! What a policy may *not* do: touch component state, send messages, or charge
//! costs — those stay in the engine, which is how the existing four mechanisms
//! stay bit-exact while new schemes slot in as one small module each. Note the
//! deliberate split from [`ProtocolConfig::backend`]: the policy decides where
//! a request goes, the backend decides what hardware serves it there (SE vs.
//! server core, ST vs. memory), and the two compose freely.

use crate::protocol::ProtocolConfig;
use syncron_sim::{Addr, FxHashSet, UnitId};

use crate::mechanism::{MechanismKind, SyncContext};

/// Whether cores talk to their local engine first, or directly to the master engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Topology {
    /// SynCron / Hier: cores talk to the engine of their own NDP unit.
    Hierarchical,
    /// Central / SynCron-flat: cores talk directly to the serving engine of the
    /// variable (a fixed unit for Central, the variable's home unit otherwise).
    Flat,
}

/// Which lock arbitration protocol the engines run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LockVariant {
    /// The ownership-passing protocol: unit-local grant queues plus a global
    /// owner/waiting queue at the master (Central/Hier/SynCron family).
    Ownership,
    /// MCS-style hardware queue lock: a tail pointer at the master, per-waiter
    /// next pointers at the waiters' engines, direct waiter→waiter handoff.
    McsQueue,
}

/// A mechanism's decision layer over the shared component tables.
pub(crate) trait SyncPolicy: std::fmt::Debug + Send {
    /// Where requests for `var` are served: `Hierarchical` routes them through
    /// the requester's local engine (unit-level aggregation), `Flat` sends them
    /// straight to the master engine.
    fn topology(&self, var: Addr) -> Topology;

    /// The engine that arbitrates `var` globally.
    fn master_of(&self, ctx: &dyn SyncContext, var: Addr) -> UnitId {
        ctx.home_unit(var)
    }

    /// The lock arbitration protocol this policy runs.
    fn lock_variant(&self) -> LockVariant {
        LockVariant::Ownership
    }

    /// Whether the engine should feed master-side contention observations to
    /// [`SyncPolicy::observe_contention`]. Static policies skip the probe.
    fn observes_contention(&self) -> bool {
        false
    }

    /// A master engine finished serving a lock message for `var` with `depth`
    /// grantees still queued globally. Adaptive policies may re-decide here;
    /// the engine calls this only for lock-primitive traffic, so barrier
    /// rounds never see their topology change mid-round.
    fn observe_contention(&mut self, var: Addr, depth: u32) {
        let _ = (var, depth);
    }
}

/// Centralized: every variable is served flat at the server of unit 0.
#[derive(Debug)]
pub(crate) struct CentralPolicy;

impl SyncPolicy for CentralPolicy {
    fn topology(&self, _var: Addr) -> Topology {
        Topology::Flat
    }

    fn master_of(&self, _ctx: &dyn SyncContext, _var: Addr) -> UnitId {
        UnitId(0)
    }
}

/// Hierarchical server-core scheme: local aggregation, home-unit masters.
#[derive(Debug)]
pub(crate) struct HierPolicy;

impl SyncPolicy for HierPolicy {
    fn topology(&self, _var: Addr) -> Topology {
        Topology::Hierarchical
    }
}

/// SynCron proper: hierarchical like [`HierPolicy`] (the SE backend and ST are
/// backend concerns, not placement decisions).
#[derive(Debug)]
pub(crate) struct SynCronPolicy;

impl SyncPolicy for SynCronPolicy {
    fn topology(&self, _var: Addr) -> Topology {
        Topology::Hierarchical
    }
}

/// SynCron's flat ablation: SE backend, but every request goes to the master.
#[derive(Debug)]
pub(crate) struct SynCronFlatPolicy;

impl SyncPolicy for SynCronFlatPolicy {
    fn topology(&self, _var: Addr) -> Topology {
        Topology::Flat
    }
}

/// MCS-style hardware queue lock. Locks run the queue protocol (per-waiter
/// next-pointer components, O(1) handoff, no broadcast wake); the other
/// primitives behave exactly as under [`SynCronPolicy`].
#[derive(Debug)]
pub(crate) struct McsPolicy;

impl SyncPolicy for McsPolicy {
    fn topology(&self, _var: Addr) -> Topology {
        Topology::Hierarchical
    }

    fn lock_variant(&self) -> LockVariant {
        LockVariant::McsQueue
    }
}

/// Adaptive Central↔Hier: every variable starts flat (minimum-latency,
/// Central-style at its home unit) and escalates — stickily, per variable — to
/// hierarchical aggregation once the master observes a global lock queue at
/// least `threshold` deep. Low-contention variables keep the two-hop flat
/// path; hot ones buy the local-aggregation protocol that amortizes global
/// traffic.
#[derive(Debug)]
pub(crate) struct AdaptivePolicy {
    threshold: u32,
    escalated: FxHashSet<Addr>,
}

impl SyncPolicy for AdaptivePolicy {
    fn topology(&self, var: Addr) -> Topology {
        if self.escalated.contains(&var) {
            Topology::Hierarchical
        } else {
            Topology::Flat
        }
    }

    fn observes_contention(&self) -> bool {
        true
    }

    fn observe_contention(&mut self, var: Addr, depth: u32) {
        if depth >= self.threshold {
            self.escalated.insert(var);
        }
    }
}

/// Builds the policy object for a protocol configuration.
pub(crate) fn policy_for(config: &ProtocolConfig) -> Box<dyn SyncPolicy> {
    match config.params.kind {
        MechanismKind::Central => Box::new(CentralPolicy),
        MechanismKind::Hier => Box::new(HierPolicy),
        MechanismKind::SynCron => Box::new(SynCronPolicy),
        MechanismKind::SynCronFlat => Box::new(SynCronFlatPolicy),
        MechanismKind::Mcs => Box::new(McsPolicy),
        MechanismKind::Adaptive => Box::new(AdaptivePolicy {
            threshold: config.params.adaptive_threshold.max(1),
            escalated: FxHashSet::default(),
        }),
        MechanismKind::Ideal => {
            unreachable!("Ideal bypasses the protocol engine and has no policy")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::mechanism::MechanismParams;
    use syncron_sim::Time;

    struct NoCtx;
    impl SyncContext for NoCtx {
        fn now(&self) -> Time {
            Time::ZERO
        }
        fn schedule(&mut self, _at: Time, _unit: UnitId, _token: u64) {}
        fn local_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
            Time::ZERO
        }
        fn send_remote(
            &mut self,
            _at: Time,
            _from: UnitId,
            _to: UnitId,
            _bytes: u64,
            _payload: crate::protocol::RemotePayload,
        ) {
        }
        fn recv_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
            Time::ZERO
        }
        fn sync_mem_access(
            &mut self,
            _unit: UnitId,
            _addr: Addr,
            _write: bool,
            _cached: bool,
        ) -> Time {
            Time::ZERO
        }
        fn home_unit(&self, addr: Addr) -> UnitId {
            UnitId((addr.0 % 7) as u8)
        }
        fn complete(&mut self, _core: syncron_sim::GlobalCoreId, _at: Time) {}
        fn units(&self) -> usize {
            8
        }
        fn cores_per_unit(&self) -> usize {
            4
        }
    }

    #[test]
    fn every_engine_backed_kind_builds_its_policy() {
        for kind in MechanismKind::ALL {
            let expected = match kind {
                MechanismKind::Ideal => continue,
                // Adaptive starts every variable flat; escalation is pinned below.
                MechanismKind::Central | MechanismKind::SynCronFlat | MechanismKind::Adaptive => {
                    Topology::Flat
                }
                MechanismKind::Hier | MechanismKind::SynCron | MechanismKind::Mcs => {
                    Topology::Hierarchical
                }
            };
            let config = ProtocolConfig::new(MechanismParams::new(kind), 8, 4);
            let policy = policy_for(&config);
            assert_eq!(policy.topology(Addr(0x40)), expected, "{kind}");
            assert_eq!(
                policy.observes_contention(),
                kind == MechanismKind::Adaptive,
                "{kind}"
            );
        }
    }

    #[test]
    fn central_pins_the_fixed_server() {
        let config = ProtocolConfig::new(MechanismParams::new(MechanismKind::Central), 8, 4);
        let policy = policy_for(&config);
        for addr in [0x40u64, 0x80, 0x1234_5678] {
            assert_eq!(policy.master_of(&NoCtx, Addr(addr)), UnitId(0));
        }
    }

    #[test]
    fn adaptive_escalates_stickily_at_threshold() {
        let config = ProtocolConfig::new(
            MechanismParams::new(MechanismKind::Adaptive).with_adaptive_threshold(3),
            8,
            4,
        );
        let mut policy = policy_for(&config);
        let hot = Addr(0x40);
        let cold = Addr(0x80);
        assert_eq!(policy.topology(hot), Topology::Flat);
        policy.observe_contention(hot, 2);
        assert_eq!(policy.topology(hot), Topology::Flat, "below threshold");
        policy.observe_contention(hot, 3);
        assert_eq!(policy.topology(hot), Topology::Hierarchical, "escalated");
        policy.observe_contention(hot, 0);
        assert_eq!(
            policy.topology(hot),
            Topology::Hierarchical,
            "escalation is sticky"
        );
        assert_eq!(policy.topology(cold), Topology::Flat, "per-variable");
    }

    #[test]
    fn mcs_runs_the_queue_variant_for_locks_only() {
        let config = ProtocolConfig::new(MechanismParams::new(MechanismKind::Mcs), 8, 4);
        let policy = policy_for(&config);
        assert_eq!(policy.lock_variant(), LockVariant::McsQueue);
        assert_eq!(policy.topology(Addr(0x40)), Topology::Hierarchical);
    }
}
