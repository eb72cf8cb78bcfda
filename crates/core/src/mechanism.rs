//! The interface between synchronization mechanisms and the simulated NDP system.
//!
//! A [`SyncMechanism`] models "everything that happens after an NDP core issues a
//! `req_sync`/`req_async` instruction": message travel, Synchronization Engine (or
//! server core) processing, global coordination, and finally the response that unblocks
//! the core. The mechanism does not own the clock, the network, or the memory — it
//! asks for those through the [`SyncContext`] the system provides, which also lets the
//! system account traffic and energy uniformly across mechanisms.
//!
//! The paper's comparison points (Section 5) map onto [`MechanismKind`]:
//! `Central` (one server core for the whole system, as in Tesseract), `Hier` (one
//! server core per NDP unit, as in Gao et al.), `SynCron` (this paper), `SynCronFlat`
//! (the flat variant ablated in Section 6.7.1) and `Ideal` (zero-overhead
//! synchronization).

pub use crate::protocol::RemotePayload;
use crate::protocol::{OverflowMode, ProtocolConfig, ProtocolMechanism};
use crate::request::SyncRequest;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId, UnitId};

/// Which synchronization mechanism to instantiate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MechanismKind {
    /// Zero-overhead synchronization (upper bound used throughout the evaluation).
    Ideal,
    /// One NDP core of the whole system acts as synchronization server
    /// (message-passing scheme extending the Tesseract barrier).
    Central,
    /// One NDP core per NDP unit acts as synchronization server (hierarchical
    /// message-passing similar to Gao et al.).
    Hier,
    /// SynCron: one Synchronization Engine per NDP unit, hierarchical protocol,
    /// direct ST buffering, integrated overflow management.
    #[default]
    SynCron,
    /// SynCron's flat variant: cores send every request directly to the Master SE
    /// (Section 6.7.1 ablation).
    SynCronFlat,
    /// MCS-style hardware queue lock on the SE substrate: a tail pointer at the
    /// Master SE and per-waiter next pointers at the waiters' local SEs, so a
    /// release hands the lock to its successor in O(1) without a master
    /// round-trip or broadcast wake. Non-lock primitives behave as in SynCron.
    /// (Beyond the paper; enabled by the component/policy split.)
    Mcs,
    /// Adaptive Central↔Hier: every variable starts on the flat two-hop path at
    /// its home unit and stickily escalates to hierarchical aggregation once
    /// the master observes a global lock queue at the configured contention
    /// threshold. (Beyond the paper; enabled by the component/policy split.)
    Adaptive,
}

impl MechanismKind {
    /// All mechanisms, in the order the paper's figures present them (the two
    /// post-paper schemes slot in before the Ideal upper bound).
    pub const ALL: [MechanismKind; 7] = [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
        MechanismKind::SynCronFlat,
        MechanismKind::Mcs,
        MechanismKind::Adaptive,
        MechanismKind::Ideal,
    ];

    /// The four schemes compared in the paper's main figures (Central, Hier, SynCron,
    /// Ideal).
    pub const COMPARED: [MechanismKind; 4] = [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
        MechanismKind::Ideal,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::Ideal => "Ideal",
            MechanismKind::Central => "Central",
            MechanismKind::Hier => "Hier",
            MechanismKind::SynCron => "SynCron",
            MechanismKind::SynCronFlat => "SynCron-flat",
            MechanismKind::Mcs => "MCS",
            MechanismKind::Adaptive => "Adaptive",
        }
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Services the simulated system offers to a synchronization mechanism.
///
/// All latency-producing activities (network hops, memory accesses) are requested
/// through this trait so that traffic, energy and data-movement accounting stays in
/// one place (the system crate) and is identical across mechanisms.
pub trait SyncContext {
    /// Current simulation time.
    fn now(&self) -> Time;

    /// Schedules `token` to be delivered back to the mechanism (via
    /// [`SyncMechanism::deliver`]) at absolute time `at`. `unit` names the unit
    /// whose engine the token concerns: a sharded system uses it to keep the
    /// event on the shard owning that unit (scheduling a token for a unit the
    /// current shard does not own is a hard error there).
    ///
    /// Contract: one call pushes exactly one event onto the system's event
    /// queue, so [`SyncContext::schedule_stamp`] advances by exactly one per
    /// call (the protocol's message batching relies on this to watermark "no
    /// pushes in between" without re-reading the stamp).
    fn schedule(&mut self, at: Time, unit: UnitId, token: u64);

    /// A monotone count of every event the whole system has scheduled so far
    /// (the mechanism's tokens *and* the system's own events), or `None` when the
    /// context does not track one.
    ///
    /// The protocol engine uses this as a watermark to coalesce messages it
    /// schedules *back to back* for the same engine at the same timestamp into
    /// one delivery: if the count has not moved since the previous message's
    /// event was pushed, no other event can pop between them, so merging them
    /// preserves the global `(time, tiebreak key)` delivery order bit for bit.
    /// The value need not be a plain counter — the sharded machine returns its
    /// next per-unit event key, which additionally encodes *which* unit's
    /// counter it is — it only has to change on every push and advance by
    /// exactly one per [`SyncContext::schedule`] call.
    /// Contexts that return `None` (the default) disable the optimization:
    /// the protocol then schedules one event per message, the reference its
    /// tests compare batching with.
    fn schedule_stamp(&self) -> Option<u64> {
        None
    }

    /// Models one message hop inside `unit` (core ↔ SE / server). Returns its latency
    /// and accounts traffic/energy.
    fn local_hop(&mut self, unit: UnitId, bytes: u64) -> Time;

    /// Sends `payload` from the engine of `from` (departing at `at`) to the
    /// engine of `to` in another unit: charges the sender-side legs (source
    /// crossbar, inter-unit link) and traffic, and arranges for
    /// [`SyncMechanism::deliver_remote`] to run on the destination unit's shard
    /// at the arrival time. The arrival is always at least the link's transfer
    /// latency after `at` — the lookahead bound sharded execution relies on.
    fn send_remote(
        &mut self,
        at: Time,
        from: UnitId,
        to: UnitId,
        bytes: u64,
        payload: RemotePayload,
    );

    /// Models the receive-side crossbar hop of a remote message arriving at
    /// `unit` (charged by [`SyncMechanism::deliver_remote`] at the arrival
    /// time). Returns its latency; traffic was accounted at the send side.
    fn recv_hop(&mut self, unit: UnitId, bytes: u64) -> Time;

    /// Models a memory access performed on behalf of synchronization by the
    /// engine/server of `unit` to the synchronization variable at `addr` (which is
    /// homed in that unit). `cached` selects whether the access may be served from the
    /// server core's private cache (Central/Hier servers) or must reach DRAM
    /// (SynCron's ST-overflow path). Returns its latency.
    fn sync_mem_access(&mut self, unit: UnitId, addr: Addr, write: bool, cached: bool) -> Time;

    /// The NDP unit that owns (is the home of) address `addr`; its engine is the
    /// Master SE for variables at that address.
    fn home_unit(&self, addr: Addr) -> UnitId;

    /// Completes a blocking request previously issued by `core`; the core resumes
    /// execution at time `at`.
    fn complete(&mut self, core: GlobalCoreId, at: Time);

    /// Number of NDP units in the system.
    fn units(&self) -> usize;

    /// Number of NDP cores per unit.
    fn cores_per_unit(&self) -> usize;
}

/// Aggregate statistics a mechanism exposes for the evaluation reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SyncMechanismStats {
    /// Synchronization requests issued by cores.
    pub requests: u64,
    /// Blocking requests completed.
    pub completions: u64,
    /// Messages exchanged between cores and their local engine/server.
    pub local_messages: u64,
    /// Messages exchanged between engines/servers of different units.
    pub global_messages: u64,
    /// Messages belonging to the overflow protocol.
    pub overflow_messages: u64,
    /// Memory accesses performed on behalf of synchronization.
    pub mem_accesses: u64,
    /// Acquire-type requests that were serviced via main memory because of ST overflow.
    pub overflowed_requests: u64,
    /// Acquire-type requests in total (denominator for the overflow fraction).
    pub acquire_requests: u64,
    /// Condvar signals that woke a queued waiter.
    pub delivered_signals: u64,
    /// Condvar signals banked as pending because no waiter was queued
    /// (signal-coalescing extension).
    pub coalesced_signals: u64,
    /// Banked pending signals later consumed by a `cond_wait`.
    pub consumed_signals: u64,
    /// Condvar signals NACKed with a backoff delay (pending count at its cap).
    pub signal_nacks: u64,
    /// High-water mark of the pending-signal count on any engine / variable.
    pub max_pending_signals: u64,
    /// Time-weighted average ST occupancy across engines, as a fraction of capacity.
    pub st_avg_occupancy: f64,
    /// Maximum ST occupancy observed on any engine, as a fraction of capacity.
    pub st_max_occupancy: f64,
}

impl SyncMechanismStats {
    /// Adds `other`'s counters into `self` (shard merge) and keeps the larger
    /// pending-signal high-water mark. The ST occupancies are per-unit ratios
    /// that do not sum; the caller recomputes them from per-unit values.
    pub fn merge(&mut self, other: &SyncMechanismStats) {
        let SyncMechanismStats {
            requests,
            completions,
            local_messages,
            global_messages,
            overflow_messages,
            mem_accesses,
            overflowed_requests,
            acquire_requests,
            delivered_signals,
            coalesced_signals,
            consumed_signals,
            signal_nacks,
            max_pending_signals,
            st_avg_occupancy: _,
            st_max_occupancy: _,
        } = *other;
        self.requests += requests;
        self.completions += completions;
        self.local_messages += local_messages;
        self.global_messages += global_messages;
        self.overflow_messages += overflow_messages;
        self.mem_accesses += mem_accesses;
        self.overflowed_requests += overflowed_requests;
        self.acquire_requests += acquire_requests;
        self.delivered_signals += delivered_signals;
        self.coalesced_signals += coalesced_signals;
        self.consumed_signals += consumed_signals;
        self.signal_nacks += signal_nacks;
        self.max_pending_signals = self.max_pending_signals.max(max_pending_signals);
    }

    /// Fraction of acquire-type requests that overflowed, in `[0, 1]`.
    pub fn overflow_fraction(&self) -> f64 {
        if self.acquire_requests == 0 {
            0.0
        } else {
            self.overflowed_requests as f64 / self.acquire_requests as f64
        }
    }
}

/// A synchronization mechanism driven by the simulated NDP system.
///
/// `Send` because the sharded execution mode moves the mechanism's state across
/// worker threads (each shard owns a full mechanism instance for its units).
pub trait SyncMechanism: Send {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Whether `req` blocks the issuing core until the mechanism completes it.
    ///
    /// Defaults to the ISA-level classification ([`SyncRequest::is_blocking`]).
    /// Mechanisms with delayed-grant replies override this for requests they will
    /// explicitly complete even though `req_async` issues them — e.g. the
    /// signal-coalescing protocol ACK/NACKs every `cond_signal`, so the signaling
    /// core stalls until the (possibly backoff-delayed) reply arrives.
    fn blocks_core(&self, req: &SyncRequest) -> bool {
        req.is_blocking()
    }

    /// An NDP core issues a synchronization request at `ctx.now()`.
    ///
    /// For blocking requests (see [`SyncMechanism::blocks_core`]) the mechanism must
    /// eventually call [`SyncContext::complete`] for `core`. Non-blocking requests
    /// return immediately on the core side; the mechanism still models their effect.
    fn request(&mut self, ctx: &mut dyn SyncContext, core: GlobalCoreId, req: SyncRequest);

    /// Delivers a token previously scheduled through [`SyncContext::schedule`].
    fn deliver(&mut self, ctx: &mut dyn SyncContext, token: u64);

    /// Delivers a cross-unit payload previously sent through
    /// [`SyncContext::send_remote`], running at the arrival time on the shard
    /// owning the destination unit. The mechanism charges the receive-side
    /// crossbar hop here (via [`SyncContext::recv_hop`]).
    ///
    /// The default panics: mechanisms that never call `send_remote` (e.g. the
    /// zero-latency ideal mechanism) can never receive one.
    fn deliver_remote(&mut self, _ctx: &mut dyn SyncContext, payload: RemotePayload) {
        panic!(
            "mechanism {:?} received a remote payload it cannot route: {payload:?}",
            self.name()
        );
    }

    /// Statistics accumulated up to `end` (the end of the simulation).
    fn stats(&self, end: Time) -> SyncMechanismStats;

    /// Time-weighted `(average, maximum)` ST occupancy of the engine of `unit`
    /// up to `end`, as fractions of capacity, or `None` when the mechanism has
    /// no per-unit occupancy (server-based schemes, ideal).
    ///
    /// The sharded report merge recomputes the global average/maximum from
    /// these per-unit values in global unit order, so the f64 reduction
    /// associates exactly as in a sequential run.
    fn st_unit_occupancy(&self, end: Time, unit: usize) -> Option<(f64, f64)> {
        let _ = (end, unit);
        None
    }
}

/// Tunable parameters for [`build_mechanism`].
#[derive(Clone, Copy, Debug)]
pub struct MechanismParams {
    /// Which mechanism to build.
    pub kind: MechanismKind,
    /// Synchronization Table entries per SE (paper default: 64).
    pub st_entries: usize,
    /// Indexing counters per SE (paper default: 256).
    pub indexing_counters: usize,
    /// Overflow-management scheme (paper default: the integrated hardware scheme).
    pub overflow_mode: OverflowMode,
    /// Optional lock-fairness threshold: maximum consecutive local grants before the
    /// lock is handed to another NDP unit (Section 4.4.2 extension).
    pub fairness_threshold: Option<u32>,
    /// Whether condvar signals that find no queued waiter are coalesced into a
    /// pending-signal count and ACK/NACKed, instead of silently dropped (default:
    /// enabled; prevents signaler loops from flooding the serving engine).
    pub signal_coalescing: bool,
    /// Base NACK backoff delay in nanoseconds for repeat signalers; the delay doubles
    /// per consecutive NACK up to 64x the base. `0` keeps the NACK replies but without
    /// any delay. Ignored when `signal_coalescing` is off.
    pub signal_backoff_ns: u64,
    /// Contention threshold of the [`MechanismKind::Adaptive`] policy: a
    /// variable escalates from the flat to the hierarchical protocol once its
    /// master observes this many grantees queued globally on its lock. Ignored
    /// by the other kinds.
    pub adaptive_threshold: u32,
}

impl MechanismParams {
    /// Default parameters for a given mechanism kind.
    pub fn new(kind: MechanismKind) -> Self {
        MechanismParams {
            kind,
            st_entries: 64,
            indexing_counters: 256,
            overflow_mode: OverflowMode::Integrated,
            fairness_threshold: None,
            signal_coalescing: true,
            signal_backoff_ns: DEFAULT_SIGNAL_BACKOFF_NS,
            adaptive_threshold: DEFAULT_ADAPTIVE_THRESHOLD,
        }
    }

    /// Sets the number of ST entries (Figure 22 / 23 sweeps).
    pub fn with_st_entries(mut self, entries: usize) -> Self {
        self.st_entries = entries;
        self
    }

    /// Sets the overflow-management scheme (Figure 23 comparison).
    pub fn with_overflow_mode(mut self, mode: OverflowMode) -> Self {
        self.overflow_mode = mode;
        self
    }

    /// Sets the lock-fairness threshold (Section 4.4.2 extension).
    pub fn with_fairness_threshold(mut self, threshold: u32) -> Self {
        self.fairness_threshold = Some(threshold);
        self
    }

    /// Enables or disables condvar signal coalescing / backoff.
    pub fn with_signal_coalescing(mut self, enabled: bool) -> Self {
        self.signal_coalescing = enabled;
        self
    }

    /// Sets the base NACK backoff delay in nanoseconds (`0` = NACK without delay).
    pub fn with_signal_backoff_ns(mut self, ns: u64) -> Self {
        self.signal_backoff_ns = ns;
        self
    }

    /// Sets the contention threshold of the adaptive Central↔Hier policy.
    pub fn with_adaptive_threshold(mut self, threshold: u32) -> Self {
        self.adaptive_threshold = threshold;
        self
    }
}

/// Default base NACK backoff delay in nanoseconds (doubles per consecutive NACK up to
/// 64x this base).
pub const DEFAULT_SIGNAL_BACKOFF_NS: u64 = 200;

/// Default contention threshold of the adaptive Central↔Hier policy.
pub const DEFAULT_ADAPTIVE_THRESHOLD: u32 = 4;

impl Default for MechanismParams {
    fn default() -> Self {
        MechanismParams::new(MechanismKind::SynCron)
    }
}

/// Builds a synchronization mechanism for a system of `units × cores_per_unit` cores.
pub fn build_mechanism(
    params: &MechanismParams,
    units: usize,
    cores_per_unit: usize,
) -> Box<dyn SyncMechanism> {
    match params.kind {
        MechanismKind::Ideal => Box::new(
            crate::ideal::IdealMechanism::new().with_signal_coalescing(params.signal_coalescing),
        ),
        _ => Box::new(ProtocolMechanism::new(ProtocolConfig::new(
            *params,
            units,
            cores_per_unit,
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_unique() {
        let mut names: Vec<&str> = MechanismKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MechanismKind::ALL.len());
        assert_eq!(MechanismKind::SynCron.to_string(), "SynCron");
    }

    #[test]
    fn compared_set_matches_paper_figures() {
        assert_eq!(MechanismKind::COMPARED.len(), 4);
        assert!(MechanismKind::COMPARED.contains(&MechanismKind::Ideal));
        assert!(!MechanismKind::COMPARED.contains(&MechanismKind::SynCronFlat));
    }

    #[test]
    fn params_builder() {
        let p = MechanismParams::new(MechanismKind::SynCron)
            .with_st_entries(16)
            .with_overflow_mode(OverflowMode::MiSarCentral)
            .with_fairness_threshold(8);
        assert_eq!(p.st_entries, 16);
        assert_eq!(p.overflow_mode, OverflowMode::MiSarCentral);
        assert_eq!(p.fairness_threshold, Some(8));
        assert_eq!(MechanismParams::default().kind, MechanismKind::SynCron);
        assert_eq!(MechanismParams::default().st_entries, 64);
        assert_eq!(MechanismParams::default().indexing_counters, 256);
        // Signal coalescing is on by default with the documented backoff base.
        assert!(MechanismParams::default().signal_coalescing);
        assert_eq!(
            MechanismParams::default().signal_backoff_ns,
            DEFAULT_SIGNAL_BACKOFF_NS
        );
        let p = MechanismParams::default()
            .with_signal_coalescing(false)
            .with_signal_backoff_ns(50);
        assert!(!p.signal_coalescing);
        assert_eq!(p.signal_backoff_ns, 50);
    }

    #[test]
    fn overflow_fraction_handles_zero() {
        let s = SyncMechanismStats::default();
        assert_eq!(s.overflow_fraction(), 0.0);
        let s = SyncMechanismStats {
            acquire_requests: 10,
            overflowed_requests: 3,
            ..Default::default()
        };
        assert!((s.overflow_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn build_every_kind() {
        for kind in MechanismKind::ALL {
            let m = build_mechanism(&MechanismParams::new(kind), 4, 16);
            assert!(!m.name().is_empty());
        }
    }
}
