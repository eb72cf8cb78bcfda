//! The event-driven NDP machine.
//!
//! [`NdpMachine`] assembles the substrates — per-core L1 caches, per-unit crossbars and
//! DRAM devices, inter-unit links, a MESI directory (for the motivational experiments)
//! and one synchronization mechanism — and steps the client cores' programs one
//! [`Action`] at a time, charging each action's latency through the corresponding
//! models. The machine is fully deterministic: same configuration and workload seed,
//! same result — independent of [`crate::config::NdpConfig::sim_threads`].
//!
//! # The run loop
//!
//! The machine partitions its units into shards (one for a sequential run, up
//! to `sim_threads` for a sharded one; see the private `shard_plan`). Every
//! shard owns
//! the substrates of a contiguous unit range — event queue, crossbars, DRAMs,
//! server caches, a full synchronization-mechanism instance — and the programs
//! and L1s of the client cores in that range. Shards advance in lock-step
//! **windows** of a conservative parallel discrete-event simulation:
//!
//! * each round, the [`WindowGate`] reduces every shard's earliest pending
//!   timestamp into the global minimum `T_min` and opens the window
//!   `[T_min, T_min + lookahead)`, where the lookahead is the minimum latency
//!   of the inter-unit link (every cross-shard interaction crosses that link);
//! * shards process only events strictly inside the window. Anything they send
//!   across shard boundaries arrives at least one lookahead later — at or past
//!   the window end — so no shard ever receives an event for a time it has
//!   already passed. Cross-shard sends travel through [`mailboxes`] and are
//!   drained between the two gate phases of the next round;
//! * equal-timestamp ordering is pinned by [`event_key`]: every event carries a
//!   `(origin unit, per-unit counter)` tiebreak key, so pop order within one
//!   timestamp is a property of the simulation, not of host thread timing. A
//!   single-shard run uses the same keys, the same windows and the same code
//!   path — the sequential mode is the `shards == 1` special case, and a
//!   sharded run reproduces its reports bit for bit
//!   ([`crate::report::RunReport::divergence_from`]).
//!
//! Within a window a shard pops its events from its binary-heap
//! [`EventQueue`] in `(time, key)` order, delivers each one, and routes the
//! core step it makes due back through the queue. A precomputed dense
//! `GlobalCoreId -> client index` table serves the resume path.

use crate::address::AddressSpace;
use crate::config::{CoherenceMode, NdpConfig};
use crate::report::{BlockedCore, IncompleteReason, RunReport, SimPerf, StallKind, StallReport};
use crate::workload::{Action, CoreProgram, Workload};

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};

use syncron_core::mechanism::{
    build_mechanism, MechanismKind, RemotePayload, SyncContext, SyncMechanism, SyncMechanismStats,
};
use syncron_core::protocol::OverflowMode;
use syncron_mem::cache::L1Cache;
use syncron_mem::dram::{DramModel, DramSpec};
use syncron_mem::energy::EnergyTally;
use syncron_mem::mesi::{CoherentAccess, MesiDirectory};
use syncron_net::crossbar::Crossbar;
use syncron_net::fault::{DedupSet, FaultEngine, FaultStats};
use syncron_net::link::InterUnitLink;
use syncron_net::traffic::TrafficStats;
use syncron_sim::event::EventQueue;
use syncron_sim::shard::{
    event_key, mailboxes, AbortCause, Mail, RoundDecision, RoundReport, ShardMap, WindowGate,
};
use syncron_sim::time::Time;
use syncron_sim::{Addr, BitQueue, CoreId, GlobalCoreId, UnitId};

/// Size of a request header packet on the network, in bytes.
const HDR_BYTES: u64 = 16;
/// Size of a data (cache line) packet on the network, in bytes.
const LINE_BYTES: u64 = 64;

#[derive(Clone, Copy, Debug)]
enum Event {
    /// A client core (by dense global client index) is ready for its next action.
    CoreStep(usize),
    /// A blocking synchronization request completed; the core resumes.
    CoreResume(GlobalCoreId),
    /// A broadcast release completed several cores of one unit at one time;
    /// they resume in ascending core order from one queued event. `token`
    /// indexes the shard's burst slab ([`Substrates::bursts`]). Replaces
    /// O(waiters) `CoreResume` events with one, without changing the resume
    /// order by a single bit (see [`Substrates::complete`]).
    CoreResumeBurst { token: u32 },
    /// A token scheduled by the synchronization mechanism for the engine of
    /// `unit` is due.
    SyncToken { unit: UnitId, token: u64 },
    /// A cross-unit mechanism message arrives at the engine of `to`.
    RemoteSync { to: UnitId, payload: RemotePayload },
    /// A fault-injected copy of a cross-unit mechanism message. `tag` is
    /// unique per transmission; the receiver's [`DedupSet`] pairs duplicate
    /// copies so exactly one of them is delivered. Only the fault path emits
    /// this variant — faults-off runs never see it.
    RemoteSyncTagged {
        to: UnitId,
        payload: RemotePayload,
        tag: u64,
    },
    /// The retransmission timer of a dropped mechanism message fired on the
    /// sending unit `from`; the message is re-sent with the next attempt
    /// number (bounded exponential backoff, see
    /// [`syncron_net::fault::FaultConfig::retry_delay`]).
    FaultRetry {
        from: UnitId,
        to: UnitId,
        bytes: u64,
        payload: RemotePayload,
        attempt: u32,
    },
    /// A remote data request from client `idx` reaches the home unit of `addr`.
    DataReq {
        idx: usize,
        home: UnitId,
        addr: Addr,
        write: bool,
        rmw: bool,
    },
    /// The data line returns to client `idx`'s unit; the core's access completes.
    DataReply { idx: usize, rmw: bool },
}

/// Precomputed dense `GlobalCoreId -> client index` table.
///
/// Replaces the `HashMap` lookup that used to sit on the `CoreResume` hot path:
/// resolution is one bounds check plus one slot load. Slots covering server cores
/// (and the whole table for out-of-geometry IDs) answer `None`.
#[derive(Clone, Debug)]
struct ClientIndex {
    units: usize,
    cores_per_unit: usize,
    /// One slot per `(unit, core)` of the configured geometry; `NOT_A_CLIENT`
    /// marks reserved server cores.
    slots: Vec<u32>,
}

const NOT_A_CLIENT: u32 = u32::MAX;

impl ClientIndex {
    fn new(units: usize, cores_per_unit: usize, clients: &[GlobalCoreId]) -> Self {
        let mut slots = vec![NOT_A_CLIENT; units * cores_per_unit];
        for (index, core) in clients.iter().enumerate() {
            slots[core.flat_index(cores_per_unit)] = index as u32;
        }
        ClientIndex {
            units,
            cores_per_unit,
            slots,
        }
    }

    /// The dense client index of `core`, or `None` when the core is outside the
    /// machine geometry or is a reserved server core.
    #[inline]
    fn get(&self, core: GlobalCoreId) -> Option<usize> {
        // Guard both coordinates: a local core ID at or past `cores_per_unit`
        // would otherwise alias into the next unit's flat range.
        if core.unit.index() >= self.units || core.core.index() >= self.cores_per_unit {
            return None;
        }
        let slot = self.slots[core.flat_index(self.cores_per_unit)];
        (slot != NOT_A_CLIENT).then_some(slot as usize)
    }
}

/// Resolves a resumed core to its dense client index.
///
/// # Panics
///
/// Panics — naming the core — when the core is not a client of this machine
/// (outside the configured geometry, or a reserved server core). A resume for
/// such a core is always a mechanism bug; it used to be silently dropped,
/// which turned protocol bugs into unexplainable deadlocks.
fn resolve_client_in(index: &ClientIndex, core: GlobalCoreId, clients_total: usize) -> usize {
    index.get(core).unwrap_or_else(|| {
        panic!(
            "CoreResume for core {core}, which is not a client of this machine \
             ({} units x {} cores, {} clients): either the core is outside the \
             geometry or it is a reserved server core",
            index.units, index.cores_per_unit, clients_total
        )
    })
}

/// One shard's share of the machine substrates, plus the clock and event queue.
///
/// The struct implements [`SyncContext`] directly: the synchronization mechanism
/// operates on the shard's own crossbars, DRAMs and queue, and every latency or
/// traffic charge lands on the shard that owns the acting unit. Per-unit vectors
/// are indexed by `unit - unit_lo`; the accessors assert ownership so a message
/// routed to a foreign unit is a hard error naming the unit, never silent
/// corruption of another unit's state.
/// A pending [`Event::CoreResumeBurst`]: the cores of `unit` resuming together
/// at one timestamp. Slab-allocated so the `Copy` event stays one word.
#[derive(Clone, Debug, Default)]
struct ResumeBurst {
    unit: UnitId,
    /// Local core indices of the burst members; iterated (and therefore
    /// resumed) in ascending order.
    cores: BitQueue,
    live: bool,
}

/// Watermark for appending to the most recently opened resume burst.
///
/// A completion may merge into the open burst only when nothing that could
/// order between them has happened since it was opened: same target `unit`,
/// same resume time `at`, no event key drawn from the executing unit's counter
/// since the burst event was pushed (`stamp`, mirroring
/// [`SyncContext::schedule_stamp`]'s batching proof), and a strictly ascending
/// core index (`last_core`) so the burst's ascending-order delivery is exactly
/// the order the individual `CoreResume` events would have popped in.
#[derive(Clone, Copy, Debug)]
struct OpenBurst {
    token: u32,
    unit: usize,
    at: Time,
    stamp: u64,
    last_core: usize,
}

struct Substrates {
    queue: EventQueue<Event>,
    /// Crossbars of the owned units, indexed by `unit - unit_lo`.
    crossbars: Vec<Crossbar>,
    /// The link model covers the full geometry; a directed channel `(from, to)`
    /// is only ever used by the shard owning `from` (requests by the sender's
    /// shard, replies by the home's shard), so per-shard instances never race
    /// and their byte counters sum exactly.
    links: InterUnitLink,
    /// DRAM devices of the owned units, indexed by `unit - unit_lo`.
    drams: Vec<DramModel>,
    /// Server-core caches of the owned units, indexed by `unit - unit_lo`.
    server_l1s: Vec<L1Cache>,
    traffic: TrafficStats,
    space: AddressSpace,
    map: ShardMap,
    /// One mailbox sender per peer shard; installed by [`NdpMachine::run`].
    senders: Vec<Sender<Mail<Event>>>,
    /// Per-owned-unit event-key counters, indexed by `unit - unit_lo`.
    key_counters: Vec<u64>,
    unit_lo: usize,
    unit_hi: usize,
    /// Unit of the event currently being dispatched; every key pushed while it
    /// runs is drawn from this unit's counter.
    cur_unit: usize,
    now: Time,
    units: usize,
    cores_per_unit: usize,
    /// Whether broadcast completions coalesce into [`Event::CoreResumeBurst`]
    /// events (the `burst_resume` knob; results are bit-identical either way).
    burst_resume: bool,
    /// Slab of pending resume bursts, indexed by the event's `token`.
    bursts: Vec<ResumeBurst>,
    /// Free slots of the burst slab.
    burst_free: Vec<u32>,
    /// The most recently opened burst still eligible for appends.
    open_burst: Option<OpenBurst>,
    /// Fault oracle for this shard's outbound mechanism messages; `Some` iff
    /// fault injection is enabled. Verdicts are pure functions of
    /// `(seed, link, sequence)`, so they are shard-count-invariant.
    fault: Option<FaultEngine>,
    /// Receiver-side pairing of duplicated (tagged) message copies.
    dedup: DedupSet,
}

impl Substrates {
    #[inline]
    fn owns(&self, unit: usize) -> bool {
        (self.unit_lo..self.unit_hi).contains(&unit)
    }

    #[inline]
    fn local(&self, unit: UnitId, what: &str) -> usize {
        let u = unit.index();
        assert!(
            self.owns(u),
            "{what} touched unit U{u}, which this shard (units U{}..U{}) does not own",
            self.unit_lo,
            self.unit_hi
        );
        u - self.unit_lo
    }

    #[inline]
    fn xbar_at(&mut self, unit: UnitId) -> &mut Crossbar {
        let i = self.local(unit, "a crossbar transfer");
        &mut self.crossbars[i]
    }

    #[inline]
    fn dram_at(&mut self, unit: UnitId) -> &mut DramModel {
        let i = self.local(unit, "a DRAM access");
        &mut self.drams[i]
    }

    /// Draws the next event key from the current execution unit's counter.
    ///
    /// Called exactly once per scheduled event, so the per-unit key streams
    /// evolve identically whatever the shard count.
    #[inline]
    fn next_key(&mut self) -> u64 {
        let slot = &mut self.key_counters[self.cur_unit - self.unit_lo];
        let key = event_key(self.cur_unit, *slot);
        *slot += 1;
        key
    }

    /// Schedules `event` at `at` on the shard owning `unit`: locally when this
    /// shard owns it, through the mailbox fabric otherwise. The key is drawn
    /// from the *originating* (current) unit either way, so the tiebreak order
    /// is a property of the simulation. Routing to a unit outside the geometry
    /// is a hard error naming the unit (see [`ShardMap::shard_of`]).
    fn route(&mut self, at: Time, unit: usize, event: Event) {
        let key = self.next_key();
        if self.owns(unit) {
            self.queue.push_keyed(at, key, event);
        } else {
            let dest = self.map.shard_of(unit);
            self.senders[dest]
                .send((at, key, event))
                .expect("cross-shard mailbox closed while the simulation is running");
        }
    }

    /// The fault-injecting send path for cross-unit mechanism messages
    /// (`attempt` is 0 for the original transmission, `k` for the k-th
    /// retransmission).
    ///
    /// Every transmission — kept or dropped — loads the network exactly like
    /// the fast path: the bytes are accounted and charged through the sender's
    /// crossbar and the link, so contention under faults is real. A dropped
    /// transmission schedules only a local [`Event::FaultRetry`] on the
    /// sending unit (bounded exponential backoff); a kept one arrives after
    /// any injected jitter plus the destination SE's stall-window deferral.
    /// Duplicates arrive as two [`Event::RemoteSyncTagged`] copies sharing a
    /// tag; the receiver delivers exactly one. With all fault probabilities
    /// zero every verdict is clean and this path schedules exactly the events
    /// the fast path would, with the same keys — the knob-aliveness contract.
    fn send_remote_faulted(
        &mut self,
        at: Time,
        from: UnitId,
        to: UnitId,
        bytes: u64,
        payload: RemotePayload,
        attempt: u32,
    ) {
        let engine = self
            .fault
            .as_mut()
            .expect("fault send path without a fault engine");
        let verdict = engine.verdict(from.index(), to.index(), attempt);
        if attempt > 0 {
            engine.stats.retransmitted += 1;
        }
        let retry_delay = engine.config().retry_delay(attempt);
        self.traffic.add_inter(bytes);
        let mut lat = self.xbar_at(from).transfer(at, bytes);
        lat += self.links.transfer(at + lat, from, to, bytes);
        if verdict.dropped {
            self.fault.as_mut().expect("fault engine").stats.dropped += 1;
            self.route(
                at + retry_delay,
                from.index(),
                Event::FaultRetry {
                    from,
                    to,
                    bytes,
                    payload,
                    attempt: attempt + 1,
                },
            );
            return;
        }
        let mut arrival = at + lat;
        if verdict.jitter > Time::ZERO {
            self.fault.as_mut().expect("fault engine").stats.delayed += 1;
            arrival += verdict.jitter;
        }
        let defer = self
            .fault
            .as_ref()
            .expect("fault engine")
            .stall_defer(to.index(), arrival);
        if defer > Time::ZERO {
            self.fault.as_mut().expect("fault engine").stats.stalled += 1;
            arrival += defer;
        }
        if verdict.duplicated {
            self.fault.as_mut().expect("fault engine").stats.duplicated += 1;
            let tag = verdict.tag;
            self.route(
                arrival,
                to.index(),
                Event::RemoteSyncTagged { to, payload, tag },
            );
            self.route(
                arrival + verdict.dup_offset,
                to.index(),
                Event::RemoteSyncTagged { to, payload, tag },
            );
        } else {
            self.route(arrival, to.index(), Event::RemoteSync { to, payload });
        }
    }
}

impl SyncContext for Substrates {
    fn now(&self) -> Time {
        self.now
    }

    fn schedule(&mut self, at: Time, unit: UnitId, token: u64) {
        let u = unit.index();
        assert!(
            self.owns(u),
            "mechanism scheduled a token for unit U{u}, which this shard \
             (units U{}..U{}) does not own: engine tokens must stay on the engine's shard",
            self.unit_lo,
            self.unit_hi
        );
        let key = self.next_key();
        self.queue
            .push_keyed(at, key, Event::SyncToken { unit, token });
    }

    fn schedule_stamp(&self) -> Option<u64> {
        // The next key the current unit would draw. It changes on every push
        // from this unit and advances by exactly one per `schedule` call, so
        // the protocol's equal-timestamp batching can prove "no event was
        // scheduled in between" — and because the key encodes the origin unit,
        // the watermark can never be confused with another unit's pushes.
        let counter = self.key_counters[self.cur_unit - self.unit_lo];
        Some(event_key(self.cur_unit, counter))
    }

    fn local_hop(&mut self, unit: UnitId, bytes: u64) -> Time {
        self.traffic.add_intra(bytes);
        let now = self.now;
        self.xbar_at(unit).transfer(now, bytes)
    }

    fn send_remote(
        &mut self,
        at: Time,
        from: UnitId,
        to: UnitId,
        bytes: u64,
        payload: RemotePayload,
    ) {
        if self.fault.is_some() {
            self.send_remote_faulted(at, from, to, bytes, payload, 0);
            return;
        }
        self.traffic.add_inter(bytes);
        let mut lat = self.xbar_at(from).transfer(at, bytes);
        lat += self.links.transfer(at + lat, from, to, bytes);
        // The arrival is at least the link's minimum latency after `at` — the
        // lookahead bound the window barrier relies on.
        self.route(at + lat, to.index(), Event::RemoteSync { to, payload });
    }

    fn recv_hop(&mut self, unit: UnitId, bytes: u64) -> Time {
        // Traffic was accounted at the send side; this is only the
        // destination-crossbar leg of the remote message.
        let now = self.now;
        self.xbar_at(unit).transfer(now, bytes)
    }

    fn sync_mem_access(&mut self, unit: UnitId, addr: Addr, write: bool, cached: bool) -> Time {
        let u = self.local(unit, "a synchronization memory access");
        let mut lat = Time::ZERO;
        if cached {
            let outcome = self.server_l1s[u].access(addr, write);
            lat += self.server_l1s[u].hit_latency();
            if outcome.is_hit() {
                return lat;
            }
        }
        // Miss (or uncached syncronVar access): go to the unit's local DRAM through the
        // crossbar.
        lat += self.crossbars[u].transfer(self.now + lat, HDR_BYTES);
        let done = self.drams[u].access(self.now + lat, addr, write);
        lat = done.saturating_sub(self.now);
        lat += self.crossbars[u].transfer(self.now + lat, LINE_BYTES);
        self.traffic.add_intra(HDR_BYTES + LINE_BYTES);
        lat
    }

    fn home_unit(&self, addr: Addr) -> UnitId {
        self.space.home_unit(addr)
    }

    fn complete(&mut self, core: GlobalCoreId, at: Time) {
        let u = core.unit.index();
        assert!(
            self.owns(u),
            "mechanism completed a request for core {core} of unit U{u}, which this \
             shard (units U{}..U{}) does not own: completions must be delivered \
             through send_remote to the core's shard",
            self.unit_lo,
            self.unit_hi
        );
        let at = at.max(self.now);
        if !self.burst_resume {
            let key = self.next_key();
            self.queue.push_keyed(at, key, Event::CoreResume(core));
            return;
        }
        // Burst path: a broadcast release completes many cores back to back at
        // one timestamp. Without bursting each completion pushes its own
        // CoreResume, drawing consecutive keys from the executing unit's
        // counter — so they pop contiguously, in completion order. Appending to
        // the open burst reproduces exactly that order as long as (a) no key
        // was drawn from the executing unit since the burst event was pushed
        // (the `stamp` check — any interleaving push would have ordered between
        // the individual resumes), (b) the target unit and resume time match,
        // and (c) the core index is strictly ascending, because the burst
        // delivers its members in ascending order. Any break in those
        // conditions simply opens a fresh burst: correctness never depends on
        // the completion pattern.
        let (unit, core_ix) = (core.unit.index(), core.core.index());
        if let Some(open) = self.open_burst {
            let counter = self.key_counters[self.cur_unit - self.unit_lo];
            if open.unit == unit
                && open.at == at
                && open.stamp == event_key(self.cur_unit, counter)
                && core_ix > open.last_core
            {
                let burst = &mut self.bursts[open.token as usize];
                debug_assert!(burst.live && burst.unit == core.unit);
                burst.cores.set(core_ix);
                self.open_burst = Some(OpenBurst {
                    last_core: core_ix,
                    ..open
                });
                return;
            }
        }
        let key = self.next_key();
        let token = match self.burst_free.pop() {
            Some(token) => token,
            None => {
                self.bursts.push(ResumeBurst::default());
                (self.bursts.len() - 1) as u32
            }
        };
        let burst = &mut self.bursts[token as usize];
        debug_assert!(!burst.live && burst.cores.is_empty());
        burst.unit = core.unit;
        burst.cores.set(core_ix);
        burst.live = true;
        self.queue
            .push_keyed(at, key, Event::CoreResumeBurst { token });
        // The watermark is the next key the executing unit would draw *after*
        // the burst event's own push.
        let counter = self.key_counters[self.cur_unit - self.unit_lo];
        self.open_burst = Some(OpenBurst {
            token,
            unit,
            at,
            stamp: event_key(self.cur_unit, counter),
            last_core: core_ix,
        });
    }

    fn units(&self) -> usize {
        self.units
    }

    fn cores_per_unit(&self) -> usize {
        self.cores_per_unit
    }
}

/// One worker's worth of the machine: a contiguous unit range, its substrates,
/// the programs and L1s of its client cores, and a full mechanism instance.
struct Shard {
    sub: Substrates,
    mechanism: Option<Box<dyn SyncMechanism>>,
    /// Programs of this shard's clients, indexed by `global index - client_lo`.
    programs: Vec<Box<dyn CoreProgram>>,
    l1s: Vec<L1Cache>,
    core_done: Vec<bool>,
    /// For each local client, the sync-variable address its pending blocking
    /// request targets — `Some` while the core is parked in the mechanism,
    /// cleared the moment it resumes. Feeds the watchdog's [`StallReport`].
    blocked_on: Vec<Option<Addr>>,
    /// Global core IDs of this shard's clients (same local indexing).
    client_ids: Vec<GlobalCoreId>,
    /// Global client index of this shard's first client.
    client_lo: usize,
    clients_total: usize,
    client_index: ClientIndex,
    /// MESI directory; present only in the single-shard configuration (the
    /// directory is centralized, so [`shard_plan`] forces `shards == 1`).
    mesi: Option<MesiDirectory>,
    mesi_network_pj: f64,
    config: NdpConfig,
    done_count: usize,
    /// Programs finished since the last gate report.
    done_round: u64,
    /// Events delivered since the last gate report.
    events_round: u64,
    /// Forward-progress units since the last gate report: program actions
    /// consumed by client cores. Mechanism chatter (tokens, remote messages,
    /// retransmissions) does not count, so a retransmission storm that wakes
    /// no core is visible to the watchdog as zero progress.
    progress_round: u64,
    events_delivered: u64,
    /// Set when one window exceeded the runaway backstop; forces an abort at
    /// the next gate round.
    runaway: bool,
    last_finish: Time,
    instructions: u64,
    loads: u64,
    stores: u64,
    sync_requests: u64,
}

impl Shard {
    /// The unit whose state `event` operates on (and whose key counter feeds
    /// everything it schedules).
    fn unit_of(&self, event: &Event) -> usize {
        match *event {
            Event::CoreStep(idx) | Event::DataReply { idx, .. } => {
                self.client_ids[idx - self.client_lo].unit.index()
            }
            Event::CoreResume(core) => core.unit.index(),
            Event::CoreResumeBurst { token } => self.sub.bursts[token as usize].unit.index(),
            Event::SyncToken { unit, .. } => unit.index(),
            Event::RemoteSync { to, .. } | Event::RemoteSyncTagged { to, .. } => to.index(),
            Event::FaultRetry { from, .. } => from.index(),
            Event::DataReq { home, .. } => home.index(),
        }
    }

    /// Delivers one popped event, then routes the core step it makes due (if
    /// any) back through the queue.
    fn dispatch(&mut self, at: Time, event: Event) {
        self.sub.now = self.sub.now.max(at);
        self.events_delivered += 1;
        self.events_round += 1;
        self.sub.cur_unit = self.unit_of(&event);
        let next_step: Option<(Time, usize)> = match event {
            Event::CoreStep(idx) => self.step_core(idx - self.client_lo).map(|t| (t, idx)),
            Event::CoreResume(core) => {
                let idx = resolve_client_in(&self.client_index, core, self.clients_total);
                let local = idx - self.client_lo;
                assert!(
                    !self.core_done[local],
                    "CoreResume for core {core}, which already finished: the \
                     mechanism completed the same request twice"
                );
                self.step_core(local).map(|t| (t, idx))
            }
            Event::CoreResumeBurst { token } => {
                // Close the open burst first: a completion scheduled while
                // the members run must not append to this already-popped
                // token.
                if self.sub.open_burst.is_some_and(|open| open.token == token) {
                    self.sub.open_burst = None;
                }
                let burst = &mut self.sub.bursts[token as usize];
                debug_assert!(burst.live);
                burst.live = false;
                let unit = burst.unit;
                // Swap the member set out so the slab entry never aliases
                // the walk; it goes back (drained, allocation intact) when
                // the token returns to the free list below.
                let mut cores = std::mem::take(&mut burst.cores);
                // Ascending-core iteration is exactly the order the
                // individual CoreResume events would have popped in (the
                // append guard admits only ascending indices).
                while let Some(core_ix) = cores.pop_first() {
                    let core = GlobalCoreId::new(unit, CoreId(core_ix as u8));
                    let idx = resolve_client_in(&self.client_index, core, self.clients_total);
                    let local = idx - self.client_lo;
                    assert!(
                        !self.core_done[local],
                        "CoreResume for core {core}, which already finished: the \
                         mechanism completed the same request twice"
                    );
                    if let Some(t) = self.step_core(local) {
                        let unit = core.unit.index();
                        self.sub.route(t, unit, Event::CoreStep(idx));
                    }
                }
                // Hand the (now empty) word buffer back to the slab so a
                // recycled token resumes with its capacity instead of
                // reallocating per wake-up.
                self.sub.bursts[token as usize].cores = cores;
                self.sub.burst_free.push(token);
                None
            }
            Event::SyncToken { token, .. } => {
                self.with_mechanism(|mech, ctx| mech.deliver(ctx, token));
                None
            }
            Event::RemoteSync { payload, .. } => {
                self.with_mechanism(|mech, ctx| mech.deliver_remote(ctx, payload));
                None
            }
            Event::RemoteSyncTagged { payload, tag, .. } => {
                // A tagged copy delivers once: the first copy of a pair is
                // handed to the mechanism, its twin is discarded here —
                // duplicates are idempotent without the protocol knowing.
                if self.sub.dedup.discard(tag) {
                    if let Some(engine) = self.sub.fault.as_mut() {
                        engine.stats.dup_discarded += 1;
                    }
                } else {
                    self.with_mechanism(|mech, ctx| mech.deliver_remote(ctx, payload));
                }
                None
            }
            Event::FaultRetry {
                from,
                to,
                bytes,
                payload,
                attempt,
            } => {
                let now = self.sub.now;
                self.sub
                    .send_remote_faulted(now, from, to, bytes, payload, attempt);
                None
            }
            Event::DataReq {
                idx,
                home,
                addr,
                write,
                rmw,
            } => {
                self.serve_data_req(idx, home, addr, write, rmw);
                None
            }
            Event::DataReply { idx, rmw } => self
                .serve_data_reply(idx - self.client_lo, rmw)
                .map(|t| (t, idx)),
        };
        if let Some((t, idx)) = next_step {
            let unit = self.client_ids[idx - self.client_lo].unit.index();
            self.sub.route(t, unit, Event::CoreStep(idx));
        }
    }

    /// Executes one step of the shard-local client `local`. Returns the absolute
    /// time at which the same core wants its next `CoreStep`, or `None` when the
    /// core finished, blocked on a synchronization request, is waiting for a
    /// remote data reply, or was already done.
    fn step_core(&mut self, local: usize) -> Option<Time> {
        if self.core_done[local] {
            return None;
        }
        // The watchdog's definition of forward progress: a client core
        // consumed one program action.
        self.progress_round += 1;
        self.blocked_on[local] = None;
        let core = self.client_ids[local];
        let now = self.sub.now;
        let action = self.programs[local].step(core, now);
        match action {
            Action::Compute { instrs } => {
                self.instructions += instrs;
                let latency = self.config.core_cycle().saturating_mul(instrs.max(1));
                Some(now + latency)
            }
            Action::Load { addr } => {
                self.loads += 1;
                self.data_access(local, core, addr, CoherentAccess::Read)
            }
            Action::Store { addr } => {
                self.stores += 1;
                self.data_access(local, core, addr, CoherentAccess::Write)
            }
            Action::Rmw { addr } => {
                self.loads += 1;
                self.stores += 1;
                self.data_access(local, core, addr, CoherentAccess::Rmw)
            }
            Action::Sync(req) => {
                self.sync_requests += 1;
                // The mechanism decides whether the request blocks: beyond the
                // ISA-level req_sync/req_async split, delayed-grant replies (condvar
                // signal coalescing ACK/NACKs) also stall the issuing core.
                let blocking = self
                    .mechanism
                    .as_ref()
                    .map(|m| m.blocks_core(&req))
                    .unwrap_or_else(|| req.is_blocking());
                let var = req.var();
                self.with_mechanism(|mech, ctx| mech.request(ctx, core, req));
                if !blocking {
                    // req_async commits as soon as the message is issued.
                    Some(now + self.config.core_cycle())
                } else {
                    // Blocking requests resume when the mechanism completes them.
                    self.blocked_on[local] = Some(var);
                    None
                }
            }
            Action::Done => {
                self.core_done[local] = true;
                self.done_count += 1;
                self.done_round += 1;
                self.last_finish = self.last_finish.max(now);
                None
            }
        }
    }

    /// A data access by client `local` to `addr`. Returns the absolute completion
    /// time, or `None` for a remote access whose request is now in flight to the
    /// home unit (the eventual [`Event::DataReply`] resumes the core).
    fn data_access(
        &mut self,
        local: usize,
        core: GlobalCoreId,
        addr: Addr,
        kind: CoherentAccess,
    ) -> Option<Time> {
        let class = self.sub.space.class_of(addr);
        let home = self.sub.space.home_unit(addr);
        let now = self.sub.now;

        // Coherent shared read-write data under the MESI mode goes through the
        // directory protocol (Figure 2 / Table 1 baselines only; always single-shard).
        if let Some(mesi) = self.mesi.as_mut().filter(|_| !class.cacheable()) {
            let out = mesi.access(now, core, addr, kind, home);
            // Account the protocol's traffic and energy analytically: control
            // messages are header-sized, every message moves through the crossbars
            // (and the links when crossing units).
            let intra_bytes = u64::from(out.intra_msgs) * 2 * HDR_BYTES;
            let inter_bytes = u64::from(out.inter_msgs) * (HDR_BYTES + LINE_BYTES) / 2;
            if intra_bytes > 0 {
                self.sub.traffic.add_intra(intra_bytes);
            }
            if inter_bytes > 0 {
                self.sub.traffic.add_inter(inter_bytes);
            }
            self.mesi_network_pj += intra_bytes as f64
                * 8.0
                * self.config.crossbar.pj_per_bit_hop
                * self.config.crossbar.hops as f64
                + inter_bytes as f64 * 8.0 * self.config.link.pj_per_bit;
            for _ in 0..out.mem_accesses {
                self.sub
                    .dram_at(home)
                    .access(now, addr, kind != CoherentAccess::Read);
            }
            // The requester's L1 energy for the probe/fill.
            self.l1s[local].access(addr, kind != CoherentAccess::Read);
            return Some(now + out.latency);
        }

        let write = kind != CoherentAccess::Read;
        let mut lat = Time::ZERO;
        if class.cacheable() {
            let outcome = self.l1s[local].access(addr, write);
            lat += self.l1s[local].hit_latency();
            if outcome.is_hit() {
                return Some(now + lat);
            }
        }

        if core.unit == home {
            // Miss or uncacheable, homed locally: fetch/update the line in this
            // unit's DRAM.
            lat += self.sub.xbar_at(core.unit).transfer(now + lat, HDR_BYTES);
            let dram_done = self.sub.dram_at(home).access(now + lat, addr, write);
            lat = dram_done.saturating_sub(now);
            lat += self.sub.xbar_at(home).transfer(now + lat, LINE_BYTES);
            self.sub.traffic.add_intra(HDR_BYTES + LINE_BYTES);
            // An atomic RMW under software-assisted coherence performs its update at
            // the memory side; charge one extra core cycle for the returned old
            // value check.
            if kind == CoherentAccess::Rmw {
                lat += self.config.core_cycle();
            }
            Some(now + lat)
        } else {
            // Remote home: the request header crosses the local crossbar and the
            // inter-unit link, and the rest of the access runs as events on the
            // home unit's shard (so the home-side crossbar and DRAM contention is
            // charged by the shard that owns them).
            lat += self.sub.xbar_at(core.unit).transfer(now + lat, HDR_BYTES);
            self.sub.traffic.add_inter(HDR_BYTES);
            lat += self
                .sub
                .links
                .transfer(now + lat, core.unit, home, HDR_BYTES);
            self.sub.route(
                now + lat,
                home.index(),
                Event::DataReq {
                    idx: self.client_lo + local,
                    home,
                    addr,
                    write,
                    rmw: kind == CoherentAccess::Rmw,
                },
            );
            None
        }
    }

    /// Home-unit half of a remote data access: crossbar, DRAM, crossbar, then the
    /// line travels back over the link to the requester's unit.
    fn serve_data_req(&mut self, idx: usize, home: UnitId, addr: Addr, write: bool, rmw: bool) {
        let t = self.sub.now;
        let mut lat = self.sub.xbar_at(home).transfer(t, HDR_BYTES);
        let dram_done = self.sub.dram_at(home).access(t + lat, addr, write);
        lat = dram_done.saturating_sub(t);
        lat += self.sub.xbar_at(home).transfer(t + lat, LINE_BYTES);
        self.sub.traffic.add_inter(LINE_BYTES);
        let cu = UnitId((idx / self.config.clients_per_unit()) as u8);
        lat += self.sub.links.transfer(t + lat, home, cu, LINE_BYTES);
        self.sub
            .route(t + lat, cu.index(), Event::DataReply { idx, rmw });
    }

    /// Requester-unit tail of a remote data access: the returning line crosses the
    /// local crossbar (plus the RMW check cycle) and the core resumes.
    fn serve_data_reply(&mut self, local: usize, rmw: bool) -> Option<Time> {
        let core = self.client_ids[local];
        let t = self.sub.now;
        let mut lat = self.sub.xbar_at(core.unit).transfer(t, LINE_BYTES);
        if rmw {
            lat += self.config.core_cycle();
        }
        Some(t + lat)
    }

    fn with_mechanism<R>(
        &mut self,
        f: impl FnOnce(&mut dyn SyncMechanism, &mut dyn SyncContext) -> R,
    ) -> R {
        let mut mech = self.mechanism.take().expect("mechanism in use");
        let result = f(mech.as_mut(), &mut self.sub);
        self.mechanism = Some(mech);
        result
    }

    /// Processes every queued event strictly before `window_end`.
    fn run_window(&mut self, window_end: Time) {
        // One window of a healthy simulation can never outgrow the whole-run
        // budget by much; a window that does is a livelock (events rescheduling
        // each other without advancing time). Break out and force an abort at
        // the gate instead of spinning forever inside the window.
        let backstop = self.config.max_events.saturating_mul(2).max(1_000_000);
        while let Some(t) = self.sub.queue.peek_time() {
            if t >= window_end {
                break;
            }
            let (at, event) = self.sub.queue.pop().expect("peeked event disappeared");
            self.dispatch(at, event);
            if self.events_round > backstop {
                self.runaway = true;
                break;
            }
        }
    }

    /// The shard's run loop: window rounds against the shared gate until the
    /// simulation finishes or aborts. Returns `Ok(aborted)` — or, when this
    /// shard panicked while processing a window, `Err(payload)` after keeping
    /// the gate protocol alive long enough for every peer to stop (a worker
    /// that just unwound would leave the others blocked on the barrier
    /// forever).
    fn run_rounds(
        &mut self,
        gate: &WindowGate,
        rx: &Receiver<Mail<Event>>,
    ) -> Result<Option<AbortCause>, Box<dyn Any + Send>> {
        // Exclusive upper bound of the previous window: no incoming message may
        // be timestamped before it (the lookahead invariant).
        let mut floor = Time::ZERO;
        let mut poison: Option<Box<dyn Any + Send>> = None;
        let mut violation: Option<String> = None;
        loop {
            // Phase 1: all sends of the previous window are visible after this.
            gate.arrive();
            while let Ok((at, key, event)) = rx.try_recv() {
                if at < floor && violation.is_none() {
                    // Record now, panic inside the catch region below: an unwind
                    // between the two gate phases would deadlock the peers.
                    violation = Some(format!(
                        "lookahead invariant violated: shard of units U{}..U{} received \
                         a cross-shard message timestamped {at}, before its window \
                         floor {floor}",
                        self.sub.unit_lo, self.sub.unit_hi
                    ));
                }
                self.sub.queue.push_keyed(at, key, event);
            }
            let mut report = RoundReport {
                local_min: if poison.is_some() {
                    None
                } else {
                    self.sub.queue.peek_time()
                },
                events_delta: std::mem::take(&mut self.events_round),
                done_delta: std::mem::take(&mut self.done_round),
                progress_delta: std::mem::take(&mut self.progress_round),
            };
            if poison.is_some() || self.runaway {
                // Overflow the global budget so the gate's next decision is an
                // abort every shard observes.
                report.events_delta = report
                    .events_delta
                    .saturating_add(self.config.max_events)
                    .saturating_add(1);
            }
            // Phase 2: reduce all reports into one decision.
            match gate.resolve(report) {
                RoundDecision::Finished => {
                    return match poison.take() {
                        Some(p) => Err(p),
                        None => Ok(None),
                    }
                }
                RoundDecision::Aborted { cause } => {
                    return match poison.take() {
                        Some(p) => Err(p),
                        None => Ok(Some(cause)),
                    }
                }
                RoundDecision::Continue { window_end } => {
                    if poison.is_none() {
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            if let Some(v) = violation.take() {
                                panic!("{v}");
                            }
                            self.run_window(window_end);
                        }));
                        if let Err(p) = outcome {
                            poison = Some(p);
                        }
                    }
                    floor = window_end;
                }
            }
        }
    }
}

/// Decides how many shards a run uses and the window lookahead.
///
/// The lookahead is the minimum latency of the inter-unit link (controller
/// in/out plus wire latency, with zero serialization/contention): every
/// cross-shard interaction — mechanism messages and remote data requests —
/// crosses that link, so nothing sent during a window can arrive before the
/// window's end.
///
/// Falls back to one shard (returning the reason) when the configuration or
/// workload cannot honor the lookahead contract:
/// the centralized MESI directory, the zero-latency Ideal mechanism,
/// the Adaptive policy (its escalation set is fed by contention observed
/// across all units, which a sharded run would partition),
/// non-integrated overflow modes (their fallback servers bypass `send_remote`),
/// workloads sharing program state outside simulated synchronization
/// ([`Workload::shard_safe`]), and zero-latency links.
fn shard_plan(config: &NdpConfig, shard_safe: bool) -> (usize, Time, Option<&'static str>) {
    let controller = config
        .link
        .clock
        .cycles_to_ps(config.link.controller_cycles);
    let lookahead = Time::from_ps(
        config
            .link
            .transfer_latency
            .as_ps()
            .saturating_add(controller.as_ps().saturating_mul(2)),
    );
    let requested = config.sim_threads.min(config.units).max(1);
    if requested <= 1 {
        return (1, lookahead, None);
    }
    let reason = if config.coherence == CoherenceMode::MesiDirectory {
        Some("the MESI directory is centralized state shards cannot partition")
    } else if config.mechanism.kind == MechanismKind::Ideal {
        Some("the Ideal mechanism completes cross-unit requests with zero latency, below any lookahead")
    } else if config.mechanism.kind == MechanismKind::Adaptive {
        Some(
            "the adaptive policy escalates per-variable topology from globally observed contention",
        )
    } else if config.mechanism.overflow_mode != OverflowMode::Integrated {
        Some("non-integrated overflow modes serialize through a central fallback path")
    } else if !shard_safe {
        Some("the workload shares program state outside simulated synchronization")
    } else if lookahead == Time::ZERO {
        Some("the inter-unit link has zero minimum latency, leaving no lookahead window")
    } else {
        None
    };
    match reason {
        Some(r) => (1, lookahead, Some(r)),
        None => (requested, lookahead, None),
    }
}

/// The simulated NDP system.
pub struct NdpMachine {
    config: NdpConfig,
    clients: Vec<GlobalCoreId>,
    /// Pristine copy of the per-shard resolution tables (test hook).
    #[cfg_attr(not(test), allow(dead_code))]
    client_index: ClientIndex,
    map: ShardMap,
    lookahead: Time,
    fallback: Option<&'static str>,
    shards: Vec<Shard>,
    workload_name: String,
    completed: bool,
    /// Why the last run ended incomplete; `None` after a completed run.
    incomplete: Option<IncompleteReason>,
}

impl std::fmt::Debug for NdpMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NdpMachine(workload={}, clients={}, shards={}, time={})",
            self.workload_name,
            self.clients.len(),
            self.shards.len(),
            self.now()
        )
    }
}

impl NdpMachine {
    /// Builds a machine for `config` running `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`NdpConfig::validate`]; configurations
    /// from [`NdpConfig::builder`] are always valid) or if the workload returns a
    /// different number of programs than there are client cores.
    pub fn new(config: &NdpConfig, workload: &dyn Workload) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let mut space = AddressSpace::new(config.units);
        let clients = config.client_cores();
        let mut programs = workload.build(&mut space, config, &clients);
        assert_eq!(
            programs.len(),
            clients.len(),
            "workload must provide one program per client core"
        );
        let client_index = ClientIndex::new(config.units, config.cores_per_unit, &clients);
        let (shard_count, lookahead, fallback) = shard_plan(config, workload.shard_safe());
        let map = ShardMap::new(config.units, shard_count);

        let dram_spec = DramSpec::for_tech(config.mem_tech);
        let per_unit = config.clients_per_unit();
        let mut programs = programs.drain(..);
        let mut shards = Vec::with_capacity(map.shards());
        for s in 0..map.shards() {
            let range = map.range(s);
            let owned = range.len();
            let client_lo = range.start * per_unit;
            let chunk: Vec<Box<dyn CoreProgram>> =
                programs.by_ref().take(owned * per_unit).collect();
            let client_ids = clients[client_lo..client_lo + chunk.len()].to_vec();
            let mesi = match config.coherence {
                CoherenceMode::SoftwareAssisted => None,
                // shard_plan forces a single shard for the MESI mode.
                CoherenceMode::MesiDirectory => Some(MesiDirectory::new(
                    config.units,
                    config.cores_per_unit,
                    config.mesi,
                )),
            };
            // Pre-size for the steady state so large geometries (thousands of
            // cores) never reallocate mid-run: every client can have a step or
            // resume event in flight plus a few mechanism tokens each.
            let queue = EventQueue::with_capacity(chunk.len() * 8 + 64);
            shards.push(Shard {
                sub: Substrates {
                    queue,
                    crossbars: (0..owned).map(|_| Crossbar::new(config.crossbar)).collect(),
                    links: InterUnitLink::new(config.link, config.units),
                    drams: (0..owned).map(|_| DramModel::new(dram_spec)).collect(),
                    server_l1s: (0..owned).map(|_| L1Cache::new(config.l1)).collect(),
                    traffic: TrafficStats::new(),
                    space: space.clone(),
                    map: map.clone(),
                    senders: Vec::new(),
                    key_counters: vec![0; owned],
                    unit_lo: range.start,
                    unit_hi: range.end,
                    cur_unit: range.start,
                    now: Time::ZERO,
                    units: config.units,
                    cores_per_unit: config.cores_per_unit,
                    burst_resume: config.burst_resume,
                    bursts: Vec::new(),
                    burst_free: Vec::new(),
                    open_burst: None,
                    fault: config
                        .fault
                        .enabled
                        .then(|| FaultEngine::new(config.fault, config.seed, config.units)),
                    dedup: DedupSet::new(),
                },
                mechanism: Some(build_mechanism(
                    &config.mechanism,
                    config.units,
                    config.cores_per_unit,
                )),
                l1s: client_ids.iter().map(|_| L1Cache::new(config.l1)).collect(),
                core_done: vec![false; chunk.len()],
                blocked_on: vec![None; chunk.len()],
                programs: chunk,
                client_ids,
                client_lo,
                clients_total: clients.len(),
                client_index: client_index.clone(),
                mesi,
                mesi_network_pj: 0.0,
                config: *config,
                done_count: 0,
                done_round: 0,
                events_round: 0,
                progress_round: 0,
                events_delivered: 0,
                runaway: false,
                last_finish: Time::ZERO,
                instructions: 0,
                loads: 0,
                stores: 0,
                sync_requests: 0,
            });
        }
        // Seed the initial steps in global client order so every core's first
        // event carries its unit's first keys, identically under any sharding.
        for (i, core) in clients.iter().enumerate() {
            let shard = &mut shards[map.shard_of(core.unit.index())];
            shard.sub.cur_unit = core.unit.index();
            let key = shard.sub.next_key();
            shard
                .sub
                .queue
                .push_keyed(Time::ZERO, key, Event::CoreStep(i));
        }
        NdpMachine {
            config: *config,
            clients,
            client_index,
            map,
            lookahead,
            fallback,
            shards,
            workload_name: workload.name(),
            completed: false,
            incomplete: None,
        }
    }

    /// Resolves a resumed core to its dense client index (test hook; the run
    /// loop resolves through the owning shard's copy of the same table).
    #[cfg(test)]
    fn resolve_client(&self, core: GlobalCoreId) -> usize {
        resolve_client_in(&self.client_index, core, self.clients.len())
    }

    /// Runs the machine until every client core has finished (or the event safety
    /// limit is reached) and returns the report.
    pub fn run(&mut self) -> RunReport {
        let wall_start = std::time::Instant::now();
        let parties = self.shards.len();
        // A single shard needs no cross-shard safety margin, so a zero lookahead
        // (zero-latency link) only has to be widened enough for windows to make
        // progress; multi-shard runs keep the exact lookahead so the window
        // sequence is identical to a single-shard run of the same configuration.
        let stride = if parties == 1 {
            self.lookahead.max(Time::from_ps(1))
        } else {
            self.lookahead
        };
        let gate = WindowGate::new(
            parties,
            stride,
            self.config.max_events,
            self.config.watchdog_limit(),
        );
        let (txs, mut rxs) = mailboxes::<Event>(parties);
        for (shard, row) in self.shards.iter_mut().zip(txs) {
            shard.sub.senders = row;
        }
        let mut abort: Option<AbortCause> = None;
        if parties == 1 {
            let rx = rxs.pop().expect("one mailbox per shard");
            match self.shards[0].run_rounds(&gate, &rx) {
                Ok(a) => abort = a,
                Err(p) => resume_unwind(p),
            }
        } else {
            let gate = &gate;
            let outcomes: Vec<Result<Option<AbortCause>, Box<dyn Any + Send>>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .shards
                        .iter_mut()
                        .zip(rxs.drain(..))
                        .map(|(shard, rx)| scope.spawn(move || shard.run_rounds(gate, &rx)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .expect("shard worker panicked outside its catch region")
                        })
                        .collect()
                });
            for outcome in outcomes {
                match outcome {
                    Ok(a) => abort = abort.or(a),
                    Err(p) => resume_unwind(p),
                }
            }
        }
        // Disconnect the mailbox fabric; a fresh one is built per run.
        for shard in &mut self.shards {
            shard.sub.senders = Vec::new();
        }
        let done: usize = self.shards.iter().map(|s| s.done_count).sum();
        self.completed = abort.is_none() && done == self.clients.len();
        self.incomplete = if self.completed {
            None
        } else {
            Some(match abort {
                Some(AbortCause::Budget) => IncompleteReason::EventBudget,
                // The gate saw events circulating without any core consuming a
                // program action: a livelock.
                Some(AbortCause::Stall) => {
                    IncompleteReason::Stalled(self.stall_report(StallKind::NoProgress))
                }
                // Every queue drained (the run "finished") with unfinished
                // cores still parked: a deadlock.
                None => IncompleteReason::Stalled(self.stall_report(StallKind::EmptyFrontier)),
            })
        };
        self.build_report(wall_start.elapsed())
    }

    /// Diagnoses a stalled run: walks the shards in global order collecting
    /// the unfinished cores and the sync-variable addresses their pending
    /// blocking requests name.
    fn stall_report(&self, kind: StallKind) -> StallReport {
        let mut blocked = Vec::new();
        let mut blocked_total = 0usize;
        let mut unfinished = 0usize;
        for shard in &self.shards {
            for (local, core) in shard.client_ids.iter().enumerate() {
                if shard.core_done[local] {
                    continue;
                }
                unfinished += 1;
                if let Some(addr) = shard.blocked_on[local] {
                    blocked_total += 1;
                    if blocked.len() < StallReport::BLOCKED_CAP {
                        blocked.push(BlockedCore {
                            unit: core.unit.index(),
                            core: core.core.index(),
                            addr: addr.0,
                        });
                    }
                }
            }
        }
        StallReport {
            kind,
            blocked,
            blocked_total,
            unfinished,
        }
    }

    /// The configuration this machine runs.
    pub fn config(&self) -> &NdpConfig {
        &self.config
    }

    /// Current simulation time (the furthest shard's clock).
    pub fn now(&self) -> Time {
        self.shards
            .iter()
            .map(|s| s.sub.now)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Number of shards this machine executes with (`1` = sequential).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Why a `sim_threads > 1` request fell back to sequential execution, if it
    /// did. `None` when sharding is active or was never requested.
    pub fn sequential_fallback(&self) -> Option<&'static str> {
        self.fallback
    }

    /// The conservative-PDES lookahead derived from the inter-unit link.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    fn build_report(&mut self, wall: std::time::Duration) -> RunReport {
        let last_finish = self
            .shards
            .iter()
            .map(|s| s.last_finish)
            .max()
            .unwrap_or(Time::ZERO);
        let end = if last_finish > Time::ZERO {
            last_finish
        } else {
            self.now()
        };
        // All floating-point merges below run in a fixed global order (client
        // L1s, then server L1s, then per-unit devices, shard by shard — which
        // is exactly global unit order, since shards own contiguous ranges), so
        // the sums associate identically whatever the shard count.
        let mut energy = EnergyTally::new();
        let mut l1_hits = 0u64;
        let mut l1_accesses = 0u64;
        for l1 in self
            .shards
            .iter()
            .flat_map(|s| s.l1s.iter())
            .chain(self.shards.iter().flat_map(|s| s.sub.server_l1s.iter()))
        {
            energy.add_cache(l1.energy_pj());
            l1_hits += l1.stats().hits.get();
            l1_accesses += l1.stats().accesses();
        }
        let mut dram_accesses = 0u64;
        for dram in self.shards.iter().flat_map(|s| s.sub.drams.iter()) {
            energy.add_memory(dram.energy_pj());
            dram_accesses += dram.stats().total_accesses();
        }
        for xbar in self.shards.iter().flat_map(|s| s.sub.crossbars.iter()) {
            energy.add_network(xbar.energy_pj());
        }
        // Link energy is a pure function of the byte count, so summing the
        // per-shard counters first and converting once is exact.
        let link_bytes: u64 = self
            .shards
            .iter()
            .map(|s| s.sub.links.stats().bytes.get())
            .sum();
        energy.add_network(self.config.link.energy_pj_of_bytes(link_bytes));
        energy.add_network(self.shards.iter().map(|s| s.mesi_network_pj).sum());

        let total_ops: u64 = self
            .shards
            .iter()
            .flat_map(|s| s.programs.iter())
            .map(|p| p.ops_completed())
            .sum();
        // Open-loop workloads expose per-core latency histograms; merge them into
        // one machine-wide tail-latency summary. Closed-loop programs expose none
        // and the report keeps `latency: None`.
        let mut latency_hist = syncron_sim::stats::LogHistogram::new();
        for program in self.shards.iter().flat_map(|s| s.programs.iter()) {
            if let Some(hist) = program.latency_histogram() {
                latency_hist.merge(hist);
            }
        }
        let latency = crate::report::LatencyReport::from_histogram(&latency_hist);

        let mut traffic = TrafficStats::new();
        let mut sync = SyncMechanismStats::default();
        for shard in &self.shards {
            traffic.merge(&shard.sub.traffic);
            if let Some(m) = shard.mechanism.as_ref() {
                sync.merge(&m.stats(end));
            }
        }
        // ST occupancy is recomputed from per-unit values in global unit order
        // (each asked of the shard owning the unit), so the f64 reduction
        // associates exactly as in a single-shard run. Mechanisms without
        // per-unit tables (server-based schemes, ideal) answer `None` for every
        // unit; their whole-run stats carry the (uniform) values instead.
        let mut any_unit = false;
        let mut occ_sum = 0.0f64;
        let mut occ_max = 0.0f64;
        for unit in 0..self.config.units {
            let shard = &self.shards[self.map.shard_of(unit)];
            if let Some((avg, max)) = shard
                .mechanism
                .as_ref()
                .and_then(|m| m.st_unit_occupancy(end, unit))
            {
                any_unit = true;
                occ_sum += avg;
                occ_max = occ_max.max(max);
            }
        }
        if any_unit {
            sync.st_avg_occupancy = occ_sum / self.config.units as f64;
            sync.st_max_occupancy = occ_max;
        } else if let Some(m) = self.shards[0].mechanism.as_ref() {
            let s = m.stats(end);
            sync.st_avg_occupancy = s.st_avg_occupancy;
            sync.st_max_occupancy = s.st_max_occupancy;
        }
        let mechanism_name = self.shards[0]
            .mechanism
            .as_ref()
            .map(|m| m.name().to_string())
            .unwrap_or_default();

        // `Some` iff fault injection is enabled — an enabled run with zero
        // faults reports all-zero counters, which report divergence treats as
        // equal to `None` (the knob-aliveness contract). Shards merge in
        // global order; the counters are u64 sums, so the total is exact.
        let faults = self.config.fault.enabled.then(|| {
            let mut stats = FaultStats::default();
            for shard in &self.shards {
                if let Some(engine) = shard.sub.fault.as_ref() {
                    stats.merge(&engine.stats);
                }
            }
            stats
        });

        RunReport {
            workload: self.workload_name.clone(),
            mechanism: mechanism_name,
            sim_time: end,
            completed: self.completed,
            total_ops,
            instructions: self.shards.iter().map(|s| s.instructions).sum(),
            loads: self.shards.iter().map(|s| s.loads).sum(),
            stores: self.shards.iter().map(|s| s.stores).sum(),
            sync_requests: self.shards.iter().map(|s| s.sync_requests).sum(),
            energy,
            traffic,
            sync,
            dram_accesses,
            l1_hit_ratio: if l1_accesses == 0 {
                0.0
            } else {
                l1_hits as f64 / l1_accesses as f64
            },
            latency,
            incomplete: self.incomplete.clone(),
            faults,
            perf: SimPerf {
                wall_seconds: wall.as_secs_f64(),
                events_delivered: self.shards.iter().map(|s| s.events_delivered).sum(),
                shards: self.shards.len(),
            },
        }
    }
}

/// Convenience wrapper: builds a machine for `config`, runs `workload` to completion
/// and returns the report.
pub fn run_workload(config: &NdpConfig, workload: &dyn Workload) -> RunReport {
    NdpMachine::new(config, workload).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DataClass;
    use syncron_core::request::{BarrierScope, SyncRequest};
    use syncron_core::MechanismKind;
    use syncron_sim::{CoreId, UnitId};

    /// Each core increments a per-core counter `iterations` times, protected by one
    /// global lock, mixing compute, memory and synchronization actions.
    struct CounterWorkload {
        iterations: u32,
    }

    struct CounterProgram {
        lock: Addr,
        slot: Addr,
        remaining: u32,
        phase: u8,
        ops: u64,
    }

    impl CoreProgram for CounterProgram {
        fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
            if self.remaining == 0 {
                return Action::Done;
            }
            let action = match self.phase {
                0 => Action::Compute { instrs: 50 },
                1 => Action::Sync(SyncRequest::LockAcquire { var: self.lock }),
                2 => Action::Load { addr: self.slot },
                3 => Action::Store { addr: self.slot },
                4 => Action::Sync(SyncRequest::LockRelease { var: self.lock }),
                _ => unreachable!(),
            };
            if self.phase == 4 {
                self.phase = 0;
                self.remaining -= 1;
                self.ops += 1;
            } else {
                self.phase += 1;
            }
            action
        }

        fn ops_completed(&self) -> u64 {
            self.ops
        }
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> String {
            "counter".into()
        }

        fn build(
            &self,
            space: &mut AddressSpace,
            _config: &NdpConfig,
            clients: &[GlobalCoreId],
        ) -> Vec<Box<dyn CoreProgram>> {
            let lock = space.allocate_shared_rw(64, UnitId(0));
            let slots = space.allocate_shared_rw(64 * clients.len() as u64, UnitId(0));
            clients
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    Box::new(CounterProgram {
                        lock,
                        slot: slots.offset(64 * i as u64),
                        remaining: self.iterations,
                        phase: 0,
                        ops: 0,
                    }) as Box<dyn CoreProgram>
                })
                .collect()
        }

        fn shard_safe(&self) -> bool {
            // Programs share nothing outside the simulated lock.
            true
        }
    }

    /// All cores synchronize on a global barrier a few times.
    struct BarrierWorkload {
        rounds: u32,
    }

    struct BarrierProgram {
        bar: Addr,
        participants: u32,
        remaining: u32,
        compute_next: bool,
    }

    impl CoreProgram for BarrierProgram {
        fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
            if self.remaining == 0 {
                return Action::Done;
            }
            if self.compute_next {
                self.compute_next = false;
                Action::Compute { instrs: 100 }
            } else {
                self.compute_next = true;
                self.remaining -= 1;
                Action::Sync(SyncRequest::BarrierWait {
                    var: self.bar,
                    participants: self.participants,
                    scope: BarrierScope::AcrossUnits,
                })
            }
        }

        fn ops_completed(&self) -> u64 {
            1
        }
    }

    impl Workload for BarrierWorkload {
        fn name(&self) -> String {
            "barrier".into()
        }

        fn build(
            &self,
            space: &mut AddressSpace,
            _config: &NdpConfig,
            clients: &[GlobalCoreId],
        ) -> Vec<Box<dyn CoreProgram>> {
            let bar = space.allocate_shared_rw(64, UnitId(0));
            clients
                .iter()
                .map(|_| {
                    Box::new(BarrierProgram {
                        bar,
                        participants: clients.len() as u32,
                        remaining: self.rounds,
                        compute_next: true,
                    }) as Box<dyn CoreProgram>
                })
                .collect()
        }

        fn shard_safe(&self) -> bool {
            true
        }
    }

    fn small_config(kind: MechanismKind) -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism(kind)
            .build()
            .unwrap()
    }

    #[test]
    fn counter_workload_completes_under_every_mechanism() {
        for kind in MechanismKind::ALL {
            let report = run_workload(&small_config(kind), &CounterWorkload { iterations: 5 });
            assert!(report.completed, "{kind:?} did not complete");
            assert_eq!(report.total_ops, 5 * 6, "{kind:?}");
            assert!(report.sim_time > Time::ZERO);
            assert!(report.sync_requests > 0);
        }
    }

    #[test]
    fn ideal_is_fastest_and_uses_least_energy() {
        let workload = CounterWorkload { iterations: 10 };
        let ideal = run_workload(&small_config(MechanismKind::Ideal), &workload);
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
        ] {
            let other = run_workload(&small_config(kind), &workload);
            assert!(
                other.sim_time >= ideal.sim_time,
                "{kind:?} ({}) beat Ideal ({})",
                other.sim_time,
                ideal.sim_time
            );
            assert!(other.energy.total_pj() >= ideal.energy.total_pj());
        }
    }

    #[test]
    fn syncron_beats_central_under_contention() {
        let workload = CounterWorkload { iterations: 20 };
        let central = run_workload(&small_config(MechanismKind::Central), &workload);
        let syncron = run_workload(&small_config(MechanismKind::SynCron), &workload);
        assert!(
            syncron.sim_time < central.sim_time,
            "SynCron {} should beat Central {}",
            syncron.sim_time,
            central.sim_time
        );
    }

    /// Even-numbered clients load one private line; the others only compute.
    struct PrivateLineWorkload;

    struct PrivateLineProgram {
        line: Option<Addr>,
        steps: u8,
    }

    impl CoreProgram for PrivateLineProgram {
        fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
            self.steps += 1;
            match (self.steps, self.line) {
                (1, Some(addr)) => Action::Load { addr },
                (1, None) => Action::Compute { instrs: 10 },
                _ => Action::Done,
            }
        }

        fn ops_completed(&self) -> u64 {
            1
        }
    }

    impl Workload for PrivateLineWorkload {
        fn name(&self) -> String {
            "private-line".into()
        }

        fn build(
            &self,
            space: &mut AddressSpace,
            _config: &NdpConfig,
            clients: &[GlobalCoreId],
        ) -> Vec<Box<dyn CoreProgram>> {
            clients
                .iter()
                .enumerate()
                .map(|(i, core)| {
                    Box::new(PrivateLineProgram {
                        line: (i % 2 == 0).then(|| space.allocate_private(64, core.unit)),
                        steps: 0,
                    }) as Box<dyn CoreProgram>
                })
                .collect()
        }
    }

    fn client_l1s_allocated(machine: &NdpMachine) -> Vec<bool> {
        machine
            .shards
            .iter()
            .flat_map(|s| s.l1s.iter().map(L1Cache::is_allocated))
            .collect()
    }

    /// A client's L1 tag store is allocated by the core's first cacheable
    /// access: building a machine allocates none, and a synchronization-only
    /// run never allocates one.
    #[test]
    fn client_l1s_are_allocated_on_first_touch() {
        for kind in MechanismKind::ALL {
            let config = small_config(kind);
            let clients = config.client_cores().len();
            let mut machine = NdpMachine::new(&config, &BarrierWorkload { rounds: 2 });
            assert_eq!(client_l1s_allocated(&machine), vec![false; clients]);
            assert!(machine.run().completed, "{kind:?}");
            assert_eq!(
                client_l1s_allocated(&machine),
                vec![false; clients],
                "{kind:?}: a synchronization-only run allocated a client L1"
            );

            let mut machine = NdpMachine::new(&config, &PrivateLineWorkload);
            let report = machine.run();
            assert!(report.completed, "{kind:?}");
            assert_eq!(report.loads, clients.div_ceil(2) as u64);
            let touched: Vec<bool> = (0..clients).map(|i| i % 2 == 0).collect();
            assert_eq!(client_l1s_allocated(&machine), touched, "{kind:?}");
        }
    }

    #[test]
    fn barrier_workload_completes() {
        for kind in [
            MechanismKind::SynCron,
            MechanismKind::Hier,
            MechanismKind::Ideal,
        ] {
            let report = run_workload(&small_config(kind), &BarrierWorkload { rounds: 4 });
            assert!(report.completed, "{kind:?}");
        }
    }

    #[test]
    fn report_accounts_energy_and_traffic() {
        let report = run_workload(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 5 },
        );
        assert!(report.energy.total_pj() > 0.0);
        assert!(report.traffic.total_bytes() > 0);
        assert!(report.dram_accesses > 0);
        assert!(report.instructions > 0);
        assert!(report.loads > 0 && report.stores > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_config(MechanismKind::SynCron);
        let a = run_workload(&cfg, &CounterWorkload { iterations: 8 });
        let b = run_workload(&cfg, &CounterWorkload { iterations: 8 });
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn sharded_runs_match_sequential_bit_for_bit() {
        // The tentpole contract: a sharded run reproduces the sequential report
        // bit for bit (everything except wall-clock perf), for every mechanism
        // that shards, every shard count, and both workload shapes.
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
            MechanismKind::SynCronFlat,
        ] {
            let base = NdpConfig::builder()
                .units(4)
                .cores_per_unit(4)
                .mechanism(kind)
                .build()
                .unwrap();
            let counter = CounterWorkload { iterations: 6 };
            let barrier = BarrierWorkload { rounds: 3 };
            let ref_counter = run_workload(&base, &counter);
            let ref_barrier = run_workload(&base, &barrier);
            for threads in [2usize, 3, 4, 8] {
                let mut cfg = base;
                cfg.sim_threads = threads;
                let mut machine = NdpMachine::new(&cfg, &counter);
                assert_eq!(machine.shard_count(), threads.min(4), "{kind:?}");
                assert_eq!(machine.sequential_fallback(), None, "{kind:?}");
                let report = machine.run();
                if let Some(field) = ref_counter.divergence_from(&report) {
                    panic!("{kind:?} counter with {threads} shards diverged: {field}");
                }
                let report = run_workload(&cfg, &barrier);
                if let Some(field) = ref_barrier.divergence_from(&report) {
                    panic!("{kind:?} barrier with {threads} shards diverged: {field}");
                }
            }
        }
    }

    #[test]
    fn sharded_deterministic_across_runs() {
        let mut cfg = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .build()
            .unwrap();
        cfg.sim_threads = 4;
        let a = run_workload(&cfg, &CounterWorkload { iterations: 8 });
        let b = run_workload(&cfg, &CounterWorkload { iterations: 8 });
        if let Some(field) = a.divergence_from(&b) {
            panic!("two identical sharded runs diverged: {field}");
        }
    }

    #[test]
    fn shard_fallbacks_are_sequential() {
        let counter = CounterWorkload { iterations: 2 };

        // The Ideal mechanism has no lookahead.
        let cfg = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .mechanism(MechanismKind::Ideal)
            .sim_threads(4)
            .build()
            .unwrap();
        let m = NdpMachine::new(&cfg, &counter);
        assert_eq!(m.shard_count(), 1);
        assert!(m.sequential_fallback().unwrap().contains("Ideal"));

        // Workloads keep the shard-unsafe default unless they opt in.
        struct UnsafeCounter(CounterWorkload);
        impl Workload for UnsafeCounter {
            fn name(&self) -> String {
                self.0.name()
            }
            fn build(
                &self,
                space: &mut AddressSpace,
                config: &NdpConfig,
                clients: &[GlobalCoreId],
            ) -> Vec<Box<dyn CoreProgram>> {
                self.0.build(space, config, clients)
            }
            // shard_safe stays at the false default.
        }
        let cfg = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .sim_threads(4)
            .build()
            .unwrap();
        let m = NdpMachine::new(&cfg, &UnsafeCounter(CounterWorkload { iterations: 2 }));
        assert_eq!(m.shard_count(), 1);
        assert!(m
            .sequential_fallback()
            .unwrap()
            .contains("outside simulated synchronization"));

        // The MESI directory is centralized.
        let cfg = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .coherence(CoherenceMode::MesiDirectory)
            .mechanism(MechanismKind::Ideal)
            .reserve_server_core(false)
            .sim_threads(4)
            .build()
            .unwrap();
        let m = NdpMachine::new(&cfg, &counter);
        assert_eq!(m.shard_count(), 1);
        assert!(m.sequential_fallback().unwrap().contains("MESI"));

        // A zero-latency link leaves no lookahead.
        let mut cfg = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .sim_threads(4)
            .build()
            .unwrap();
        cfg.link.transfer_latency = Time::ZERO;
        cfg.link.controller_cycles = 0;
        let m = NdpMachine::new(&cfg, &counter);
        assert_eq!(m.shard_count(), 1);
        assert_eq!(m.lookahead(), Time::ZERO);
        assert!(m.sequential_fallback().unwrap().contains("lookahead"));
        // The zero-lookahead sequential run still completes (windows are
        // widened to the minimum stride).
        let report = run_workload(&cfg, &counter);
        assert!(report.completed);

        // One unit cannot shard; that is not a "fallback", just the geometry.
        let cfg = NdpConfig::builder()
            .units(1)
            .cores_per_unit(4)
            .sim_threads(8)
            .build()
            .unwrap();
        let m = NdpMachine::new(&cfg, &counter);
        assert_eq!(m.shard_count(), 1);
        assert_eq!(m.sequential_fallback(), None);
    }

    #[test]
    fn tokens_for_foreign_units_are_hard_errors() {
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .sim_threads(2)
            .build()
            .unwrap();
        let mut machine = NdpMachine::new(&cfg, &CounterWorkload { iterations: 1 });
        assert_eq!(machine.shard_count(), 2);
        let shard = &mut machine.shards[0];
        // A token for a unit owned by the peer shard names the unit and range.
        let err = catch_unwind(AssertUnwindSafe(|| {
            shard.sub.schedule(Time::from_ns(1), UnitId(1), 0);
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("U1"), "panic must name the unit: {msg}");
        assert!(
            msg.contains("U0..U1"),
            "panic must name the owned range: {msg}"
        );
        // A unit outside the geometry is equally fatal.
        let err = catch_unwind(AssertUnwindSafe(|| {
            shard.sub.schedule(Time::from_ns(1), UnitId(7), 0);
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("U7"), "panic must name the unit: {msg}");
        // And a message routed to a unit no shard owns panics in the shard map.
        let err = catch_unwind(AssertUnwindSafe(|| {
            machine.map.shard_of(9);
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("U9"), "panic must name the unit: {msg}");
    }

    #[test]
    fn duplicate_completion_is_a_hard_error() {
        let mut machine = NdpMachine::new(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 1 },
        );
        let shard = &mut machine.shards[0];
        shard.core_done[0] = true;
        shard.done_count = 1;
        let core = shard.client_ids[0];
        let err = catch_unwind(AssertUnwindSafe(|| {
            shard.dispatch(Time::ZERO, Event::CoreResume(core));
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(
            msg.contains("already finished") && msg.contains("twice"),
            "panic must explain the double completion: {msg}"
        );
    }

    #[test]
    fn report_carries_simulator_perf() {
        let report = run_workload(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 5 },
        );
        assert!(report.perf.events_delivered > 0);
        // Wall time resolution is host-dependent, but the counter must at least
        // cover one event per delivered action.
        assert!(report.perf.events_delivered >= report.instructions.min(1));
    }

    #[test]
    fn resume_for_unknown_core_is_a_hard_error() {
        // A CoreResume for a core outside the geometry (or for a reserved server
        // core) is a mechanism bug; it used to be silently ignored.
        let machine = NdpMachine::new(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 1 },
        );
        // In-geometry client cores resolve to their dense index.
        assert_eq!(
            machine.resolve_client(GlobalCoreId::new(UnitId(0), CoreId(0))),
            0
        );
        assert_eq!(
            machine.resolve_client(GlobalCoreId::new(UnitId(1), CoreId(0))),
            machine.config.clients_per_unit()
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.resolve_client(GlobalCoreId::new(UnitId(7), CoreId(3)))
        }));
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("U7.c3"),
            "panic must name the core: {message}"
        );
        assert!(message.contains("not a client"));
    }

    #[test]
    fn server_cores_and_aliasing_ids_are_not_clients() {
        // cores_per_unit = 4 with a reserved server core: local core 3 serves.
        let machine = NdpMachine::new(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 1 },
        );
        let index = &machine.client_index;
        assert_eq!(index.get(GlobalCoreId::new(UnitId(0), CoreId(3))), None);
        // A local core ID at or past cores_per_unit must not alias into the next
        // unit's flat range (U0.c4 would otherwise resolve to U1.c0's slot).
        assert_eq!(index.get(GlobalCoreId::new(UnitId(0), CoreId(4))), None);
        assert_eq!(index.get(GlobalCoreId::new(UnitId(2), CoreId(0))), None);
        assert_eq!(
            index.get(GlobalCoreId::new(UnitId(1), CoreId(0))),
            Some(machine.config.clients_per_unit())
        );
    }

    #[test]
    fn remote_data_costs_more_than_local() {
        // A single core reading shared data homed locally vs remotely.
        struct OneReader {
            home: UnitId,
        }
        struct ReaderProgram {
            addr: Addr,
            remaining: u32,
        }
        impl CoreProgram for ReaderProgram {
            fn step(&mut self, _c: GlobalCoreId, _n: Time) -> Action {
                if self.remaining == 0 {
                    return Action::Done;
                }
                self.remaining -= 1;
                Action::Load { addr: self.addr }
            }
        }
        impl Workload for OneReader {
            fn name(&self) -> String {
                "one-reader".into()
            }
            fn build(
                &self,
                space: &mut AddressSpace,
                _c: &NdpConfig,
                clients: &[GlobalCoreId],
            ) -> Vec<Box<dyn CoreProgram>> {
                let addr = space.allocate(4096, DataClass::SharedReadWrite, self.home);
                clients
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        Box::new(ReaderProgram {
                            addr: addr.offset(64 * i as u64),
                            remaining: if i == 0 { 100 } else { 0 },
                        }) as Box<dyn CoreProgram>
                    })
                    .collect()
            }
        }
        let cfg = small_config(MechanismKind::Ideal);
        let local = run_workload(&cfg, &OneReader { home: UnitId(0) });
        let remote = run_workload(&cfg, &OneReader { home: UnitId(1) });
        assert!(remote.sim_time > local.sim_time);
        assert!(remote.traffic.inter_unit_bytes > local.traffic.inter_unit_bytes);
    }

    #[test]
    fn deadlocked_workload_reports_incomplete() {
        // A core that acquires a lock twice without releasing deadlocks itself.
        struct Deadlock;
        struct DeadlockProgram {
            lock: Addr,
            acquired: u32,
        }
        impl CoreProgram for DeadlockProgram {
            fn step(&mut self, _c: GlobalCoreId, _n: Time) -> Action {
                self.acquired += 1;
                Action::Sync(SyncRequest::LockAcquire { var: self.lock })
            }
        }
        impl Workload for Deadlock {
            fn name(&self) -> String {
                "deadlock".into()
            }
            fn build(
                &self,
                space: &mut AddressSpace,
                _c: &NdpConfig,
                clients: &[GlobalCoreId],
            ) -> Vec<Box<dyn CoreProgram>> {
                let lock = space.allocate_shared_rw(64, UnitId(0));
                clients
                    .iter()
                    .map(|_| {
                        Box::new(DeadlockProgram { lock, acquired: 0 }) as Box<dyn CoreProgram>
                    })
                    .collect()
            }
        }
        let config = small_config(MechanismKind::SynCron);
        let report = run_workload(&config, &Deadlock);
        assert!(!report.completed);
        // The stall is diagnosed within ~1% of the event budget, with a
        // structured report naming the blocked cores and the lock address.
        assert!(
            report.perf.events_delivered <= config.max_events / 100,
            "stall diagnosis burned {} of {} events",
            report.perf.events_delivered,
            config.max_events
        );
        let Some(IncompleteReason::Stalled(stall)) = report.incomplete.as_ref() else {
            panic!("expected a stall diagnosis, got {:?}", report.incomplete);
        };
        assert_eq!(stall.unfinished, config.total_clients());
        assert!(stall.blocked_total > 0, "no core was seen blocked");
        assert!(!stall.blocked.is_empty());
        // Every blocked core waits on the one self-deadlocked lock, which the
        // workload allocated on unit 0's shared heap.
        let lock = stall.blocked[0].addr;
        assert!(stall.blocked.iter().all(|b| b.addr == lock));
        assert!(
            stall.blocked.iter().any(|b| b.unit == 0 && b.core == 0),
            "core U0.c0 must be listed"
        );
    }

    #[test]
    fn total_message_loss_is_diagnosed_as_a_livelock() {
        // drop_prob = 1.0 loses every mechanism message: the senders
        // retransmit forever, events keep circulating, and no core ever
        // resumes. The watchdog must call this a no-progress stall — and do it
        // within ~1% of the event budget instead of burning all of it.
        let mut cfg = small_config(MechanismKind::SynCron);
        cfg.fault.enabled = true;
        cfg.fault.drop_prob = 1.0;
        let report = run_workload(&cfg, &CounterWorkload { iterations: 3 });
        assert!(!report.completed);
        assert!(
            report.perf.events_delivered <= cfg.max_events / 50,
            "livelock diagnosis burned {} events",
            report.perf.events_delivered
        );
        let Some(IncompleteReason::Stalled(stall)) = report.incomplete.as_ref() else {
            panic!("expected a stall diagnosis, got {:?}", report.incomplete);
        };
        assert_eq!(stall.kind, StallKind::NoProgress);
        let faults = report.faults.expect("fault stats present when enabled");
        assert!(faults.dropped > 0);
        assert!(faults.retransmitted > 0);
    }

    #[test]
    fn zero_probability_faults_are_bit_invisible() {
        // The knob-aliveness contract at machine level: enabling fault
        // injection with every probability zero must reproduce the faults-off
        // run bit for bit, sequentially and sharded.
        for threads in [1usize, 4] {
            let mut base = NdpConfig::builder()
                .units(4)
                .cores_per_unit(4)
                .sim_threads(threads)
                .build()
                .unwrap();
            let reference = run_workload(&base, &CounterWorkload { iterations: 6 });
            assert!(reference.faults.is_none());
            base.fault.enabled = true;
            let report = run_workload(&base, &CounterWorkload { iterations: 6 });
            assert_eq!(report.faults, Some(FaultStats::default()));
            if let Some(field) = reference.divergence_from(&report) {
                panic!("zero-probability faults diverged ({threads} threads): {field}");
            }
        }
    }

    #[test]
    fn single_drop_recovers_through_retransmission() {
        // Deterministically drop the first original message on every link; the
        // timeout/retry path must still drive the run to completion, with the
        // same simulated result under sequential and sharded execution.
        let mut cfg = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .build()
            .unwrap();
        cfg.fault.enabled = true;
        cfg.fault.drop_nth = 1;
        let reference = run_workload(&cfg, &CounterWorkload { iterations: 4 });
        assert!(reference.completed, "run did not recover from drops");
        let faults = reference.faults.expect("fault stats present");
        assert!(faults.dropped > 0, "no message was dropped");
        assert_eq!(faults.retransmitted, faults.dropped);
        cfg.sim_threads = 4;
        let sharded = run_workload(&cfg, &CounterWorkload { iterations: 4 });
        if let Some(field) = reference.divergence_from(&sharded) {
            panic!("faulted run diverged under sharding: {field}");
        }
    }

    #[test]
    fn mesi_mode_runs_rmw_workload() {
        struct SpinWorkload;
        struct SpinProgram {
            lock: Addr,
            remaining: u32,
            holding: bool,
        }
        impl CoreProgram for SpinProgram {
            fn step(&mut self, _c: GlobalCoreId, _n: Time) -> Action {
                if self.remaining == 0 {
                    return Action::Done;
                }
                if self.holding {
                    self.holding = false;
                    self.remaining -= 1;
                    Action::Store { addr: self.lock }
                } else {
                    self.holding = true;
                    Action::Rmw { addr: self.lock }
                }
            }
            fn ops_completed(&self) -> u64 {
                1
            }
        }
        impl Workload for SpinWorkload {
            fn name(&self) -> String {
                "spin".into()
            }
            fn build(
                &self,
                space: &mut AddressSpace,
                _c: &NdpConfig,
                clients: &[GlobalCoreId],
            ) -> Vec<Box<dyn CoreProgram>> {
                let lock = space.allocate_shared_rw(64, UnitId(0));
                clients
                    .iter()
                    .map(|_| {
                        Box::new(SpinProgram {
                            lock,
                            remaining: 10,
                            holding: false,
                        }) as Box<dyn CoreProgram>
                    })
                    .collect()
            }
        }
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .coherence(CoherenceMode::MesiDirectory)
            .mechanism(MechanismKind::Ideal)
            .reserve_server_core(false)
            .build()
            .unwrap();
        let report = run_workload(&cfg, &SpinWorkload);
        assert!(report.completed);
        assert!(report.traffic.total_bytes() > 0);
    }
}
