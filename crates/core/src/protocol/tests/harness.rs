//! The miniature machine the protocol unit tests drive mechanisms with.

use crate::mechanism::{build_mechanism, MechanismKind, MechanismParams};
use crate::mechanism::{SyncContext, SyncMechanism};
use crate::protocol::{ProtocolConfig, ProtocolMechanism, RemotePayload};
use crate::request::SyncRequest;
use syncron_sim::event::EventQueue;
use syncron_sim::time::Time;
use syncron_sim::{Addr, CoreId, GlobalCoreId, UnitId};

/// A miniature NDP system used to drive mechanisms in isolation: fixed hop and
/// memory latencies, FIFO event delivery, and a record of completions.
pub(super) struct Harness {
    pub(super) mech: Box<dyn SyncMechanism>,
    pub(super) ctx: HarnessCtx,
}

pub(super) struct HarnessCtx {
    pub(super) now: Time,
    pub(super) queue: EventQueue<u64>,
    /// Remote payloads in flight, delivered interleaved with the token
    /// queue in arrival-time order (the machine's sharded mailboxes,
    /// collapsed to one queue).
    pub(super) inbox: EventQueue<RemotePayload>,
    pub(super) completed: Vec<(GlobalCoreId, Time)>,
    pub(super) local_hops: u64,
    pub(super) remote_hops: u64,
    pub(super) mem_accesses: u64,
    /// Whether `schedule_stamp` answers. Without a stamp the protocol
    /// merges nothing and schedules one event per message: the
    /// per-message reference that batching must reproduce.
    pub(super) stamped: bool,
}

impl SyncContext for HarnessCtx {
    fn now(&self) -> Time {
        self.now
    }
    fn schedule(&mut self, at: Time, _unit: UnitId, token: u64) {
        self.queue.push(at, token);
    }
    fn schedule_stamp(&self) -> Option<u64> {
        // The harness pushes nothing but mechanism tokens, so the queue's
        // push count is the system-wide count: batching is active in these
        // tests exactly as it is under the full machine.
        self.stamped.then(|| self.queue.scheduled_total())
    }
    fn local_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
        self.local_hops += 1;
        Time::from_ns(2)
    }
    fn send_remote(&mut self, at: Time, _f: UnitId, _t: UnitId, _bytes: u64, p: RemotePayload) {
        // One flat 40 ns for the whole remote journey, charged at the send
        // side; `recv_hop` is free so end-to-end latencies match the old
        // single-call hop model these tests were written against.
        self.remote_hops += 1;
        self.inbox.push(at + Time::from_ns(40), p);
    }
    fn recv_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
        Time::ZERO
    }
    fn sync_mem_access(&mut self, _u: UnitId, _a: Addr, _w: bool, _c: bool) -> Time {
        self.mem_accesses += 1;
        Time::from_ns(20)
    }
    fn home_unit(&self, addr: Addr) -> UnitId {
        UnitId(((addr.value() >> 22) % 4) as u8)
    }
    fn complete(&mut self, core: GlobalCoreId, at: Time) {
        self.completed.push((core, at));
    }
    fn units(&self) -> usize {
        4
    }
    fn cores_per_unit(&self) -> usize {
        16
    }
}

impl HarnessCtx {
    /// Delivers the earliest pending item (scheduled token or in-flight
    /// remote payload); returns `false` when both queues are empty.
    fn drive(&mut self, mech: &mut dyn SyncMechanism) -> bool {
        let token_at = self.queue.peek_time();
        let remote_at = self.inbox.peek_time();
        match (token_at, remote_at) {
            (None, None) => false,
            (Some(t), r) if r.is_none_or(|r| t <= r) => {
                let (at, token) = self.queue.pop().unwrap();
                self.now = self.now.max(at);
                mech.deliver(self, token);
                true
            }
            _ => {
                let (at, payload) = self.inbox.pop().unwrap();
                self.now = self.now.max(at);
                mech.deliver_remote(self, payload);
                true
            }
        }
    }
}

impl Harness {
    pub(super) fn new(kind: MechanismKind) -> Self {
        Harness::with_params(MechanismParams::new(kind))
    }

    pub(super) fn with_params(params: MechanismParams) -> Self {
        Harness {
            mech: build_mechanism(&params, 4, 16),
            ctx: bare_ctx(),
        }
    }

    pub(super) fn request(&mut self, core: GlobalCoreId, req: SyncRequest) {
        self.mech.request(&mut self.ctx, core, req);
        self.drain();
    }

    pub(super) fn drain(&mut self) {
        while self.ctx.drive(self.mech.as_mut()) {}
    }

    pub(super) fn completed(&self) -> &[(GlobalCoreId, Time)] {
        &self.ctx.completed
    }
}

pub(super) fn core(u: u8, c: u8) -> GlobalCoreId {
    GlobalCoreId::new(UnitId(u), CoreId(c))
}

/// The 4x16 protocol configuration of `kind` at default parameters.
pub(super) fn config_4x16(kind: MechanismKind) -> ProtocolConfig {
    ProtocolConfig::new(MechanismParams::new(kind), 4, 16)
}

pub(super) fn lock_var() -> Addr {
    // Homed in unit 1 for the harness's home_unit function.
    Addr(1 << 22)
}

pub(super) fn bare_ctx() -> HarnessCtx {
    HarnessCtx {
        now: Time::ZERO,
        queue: EventQueue::new(),
        inbox: EventQueue::new(),
        completed: Vec::new(),
        local_hops: 0,
        remote_hops: 0,
        mem_accesses: 0,
        stamped: true,
    }
}

pub(super) fn drain_ctx(mech: &mut ProtocolMechanism, ctx: &mut HarnessCtx) {
    while ctx.drive(mech) {}
}

/// Removes from `waiting` the one core among the completions from index
/// `from` on, and returns it.
pub(super) fn take_woken(
    completed: &[(GlobalCoreId, Time)],
    from: usize,
    waiting: &mut Vec<GlobalCoreId>,
) -> GlobalCoreId {
    let woken: Vec<GlobalCoreId> = completed[from..]
        .iter()
        .map(|&(c, _)| c)
        .filter(|c| waiting.contains(c))
        .collect();
    assert_eq!(woken.len(), 1, "expected one woken waiter, got {woken:?}");
    waiting.retain(|c| *c != woken[0]);
    woken[0]
}
