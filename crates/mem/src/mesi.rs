//! Directory-based MESI coherence model.
//!
//! The NDP system itself does **not** support hardware cache coherence; this model
//! exists to reproduce the paper's motivational baselines:
//!
//! * Figure 2 — a stack protected by a coherence-based lock (`mesi-lock`) implemented
//!   on top of a MESI directory protocol, compared to an ideal zero-cost lock, while
//!   varying the number of NDP cores and NDP units.
//! * Table 1 — throughput of TTAS and hierarchical ticket locks on a two-socket CPU.
//!
//! The model is a home-directory protocol: each cache line has a home NDP unit
//! (derived by the caller from the data placement); the directory at the home unit
//! tracks the set of sharers and the exclusive owner, serializes transactions to the
//! same line, and forwards/invalidates as needed. Latencies are composed from the
//! parameters in [`MesiParams`]; the caller converts the returned message counts into
//! network traffic and energy.

use syncron_sim::queueing::Serializer;
use syncron_sim::stats::Counter;
use syncron_sim::time::Time;
use syncron_sim::{Addr, FxHashMap, GlobalCoreId, UnitId};

/// The kind of coherent access a core performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoherentAccess {
    /// A load; requires the line in Shared or better state.
    Read,
    /// A store; requires exclusive ownership (Modified state).
    Write,
    /// An atomic read-modify-write (e.g. test-and-set, CAS, fetch-and-add); requires
    /// exclusive ownership and adds one ALU cycle.
    Rmw,
}

/// Latency parameters of the coherence fabric.
#[derive(Clone, Copy, Debug)]
pub struct MesiParams {
    /// L1 lookup / fill latency (hit latency of the private cache).
    pub l1_latency: Time,
    /// Directory lookup and state-update latency at the home node.
    pub dir_latency: Time,
    /// One-way latency of a coherence message between two cores (or core and
    /// directory) in the **same** NDP unit / socket.
    pub intra_unit_msg: Time,
    /// One-way latency of a coherence message that crosses NDP units / sockets.
    pub inter_unit_msg: Time,
    /// DRAM access latency at the home node when no cache holds the line.
    pub mem_latency: Time,
    /// Extra latency of the atomic ALU operation for RMW accesses.
    pub rmw_latency: Time,
}

impl MesiParams {
    /// Parameters matching the simulated NDP system of Table 5: 4-cycle L1 at 2.5 GHz,
    /// a few-cycle directory, ~20 ns intra-unit round trips and 40 ns+ inter-unit
    /// messages, HBM-like memory latency.
    pub fn ndp_default() -> Self {
        MesiParams {
            l1_latency: Time::from_ps(1600),
            dir_latency: Time::from_ns(2),
            intra_unit_msg: Time::from_ns(8),
            inter_unit_msg: Time::from_ns(40),
            mem_latency: Time::from_ns(21),
            rmw_latency: Time::from_ps(400),
        }
    }

    /// Parameters representative of a two-socket server CPU (Table 1): fast on-chip
    /// coherence within a socket, expensive cross-socket (QPI/UPI-like) messages.
    pub fn cpu_two_socket() -> Self {
        MesiParams {
            l1_latency: Time::from_ps(1600),
            dir_latency: Time::from_ns(4),
            intra_unit_msg: Time::from_ns(15),
            inter_unit_msg: Time::from_ns(120),
            mem_latency: Time::from_ns(80),
            rmw_latency: Time::from_ps(800),
        }
    }

    fn msg(&self, a: UnitId, b: UnitId) -> (Time, bool) {
        if a == b {
            (self.intra_unit_msg, false)
        } else {
            (self.inter_unit_msg, true)
        }
    }
}

/// Result of one coherent access.
#[derive(Clone, Copy, Debug, Default)]
pub struct MesiOutcome {
    /// Latency of the access, as seen by the requesting core.
    pub latency: Time,
    /// Whether the access hit in the requester's cache without a directory transaction.
    pub local_hit: bool,
    /// Coherence messages exchanged within an NDP unit.
    pub intra_msgs: u32,
    /// Coherence messages exchanged across NDP units.
    pub inter_msgs: u32,
    /// DRAM accesses performed at the home node.
    pub mem_accesses: u32,
    /// Number of remote caches invalidated.
    pub invalidations: u32,
}

/// Per-line directory state.
#[derive(Clone, Debug, Default)]
struct DirEntry {
    /// Bitmask of cores holding the line in Shared state.
    sharers: u64,
    /// Core holding the line in Modified/Exclusive state, if any.
    owner: Option<GlobalCoreId>,
    /// Serializes directory transactions to this line.
    busy: Serializer,
}

/// Counters maintained by a [`MesiDirectory`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MesiStats {
    /// Accesses satisfied locally without a directory transaction.
    pub local_hits: Counter,
    /// Accesses that required a directory transaction.
    pub dir_transactions: Counter,
    /// Total invalidation messages sent.
    pub invalidations: Counter,
    /// Total DRAM accesses performed on behalf of coherence misses.
    pub mem_accesses: Counter,
}

/// A home-directory MESI coherence protocol model over the NDP cores.
///
/// # Example
///
/// ```
/// use syncron_mem::mesi::{CoherentAccess, MesiDirectory, MesiParams};
/// use syncron_sim::{Addr, CoreId, GlobalCoreId, Time, UnitId};
///
/// let mut dir = MesiDirectory::new(2, 4, MesiParams::ndp_default());
/// let c0 = GlobalCoreId::new(UnitId(0), CoreId(0));
/// let c1 = GlobalCoreId::new(UnitId(1), CoreId(0));
/// let lock = Addr(0x80);
///
/// // First RMW misses everywhere and goes to memory.
/// let first = dir.access(Time::ZERO, c0, lock, CoherentAccess::Rmw, UnitId(0));
/// assert_eq!(first.mem_accesses, 1);
/// // A remote core's RMW must invalidate the previous owner across units.
/// let second = dir.access(first.latency, c1, lock, CoherentAccess::Rmw, UnitId(0));
/// assert!(second.invalidations >= 1);
/// assert!(second.inter_msgs > 0);
/// ```
#[derive(Clone, Debug)]
pub struct MesiDirectory {
    params: MesiParams,
    cores_per_unit: usize,
    total_cores: usize,
    /// Per-line directory entries, keyed by line index. Uses the deterministic
    /// fixed-seed [`FxHashMap`] like every other hot-path simulator map: the std
    /// default (SipHash with a per-process random seed) costs tens of
    /// nanoseconds per lookup and randomizes iteration order between processes.
    lines: FxHashMap<u64, DirEntry>,
    stats: MesiStats,
}

impl MesiDirectory {
    /// Creates a directory for `units × cores_per_unit` cores.
    ///
    /// # Panics
    ///
    /// Panics if the total number of cores exceeds 64 (the sharer bitmask width) or is zero.
    pub fn new(units: usize, cores_per_unit: usize, params: MesiParams) -> Self {
        let total = units * cores_per_unit;
        assert!(total > 0 && total <= 64, "MESI model supports 1..=64 cores");
        MesiDirectory {
            params,
            cores_per_unit,
            total_cores: total,
            lines: FxHashMap::default(),
            stats: MesiStats::default(),
        }
    }

    /// The parameters this directory was built with.
    pub fn params(&self) -> &MesiParams {
        &self.params
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MesiStats {
        &self.stats
    }

    fn bit(&self, core: GlobalCoreId) -> u64 {
        1u64 << core.flat_index(self.cores_per_unit)
    }

    /// Performs one coherent access by `core` to `addr`, whose directory lives at
    /// `home`. Returns the latency and message/energy-relevant counts.
    pub fn access(
        &mut self,
        now: Time,
        core: GlobalCoreId,
        addr: Addr,
        kind: CoherentAccess,
        home: UnitId,
    ) -> MesiOutcome {
        let params = self.params;
        let cores_per_unit = self.cores_per_unit;
        let total_cores = self.total_cores;
        let my_bit = self.bit(core);
        let line = addr.line_index();
        let entry = self.lines.entry(line).or_default();

        let mut out = MesiOutcome {
            latency: params.l1_latency,
            ..MesiOutcome::default()
        };

        let has_shared = entry.sharers & my_bit != 0;
        let is_owner = entry.owner == Some(core);

        // Local hit fast paths (no directory transaction).
        match kind {
            CoherentAccess::Read if has_shared || is_owner => {
                out.local_hit = true;
                self.stats.local_hits.inc();
                return out;
            }
            CoherentAccess::Write | CoherentAccess::Rmw if is_owner => {
                out.local_hit = true;
                out.latency += params.rmw_latency;
                self.stats.local_hits.inc();
                return out;
            }
            _ => {}
        }

        self.stats.dir_transactions.inc();

        // Request to the home directory.
        let (req, req_remote) = params.msg(core.unit, home);
        out.latency += req;
        add_msg(&mut out, req_remote);

        // Directory transactions to the same line serialize.
        let request_arrival = now + out.latency;
        let dir_start = entry.busy.acquire(request_arrival, params.dir_latency);
        out.latency = (dir_start - now) + params.dir_latency;

        let owner = entry.owner;
        let sharers = entry.sharers;

        match kind {
            CoherentAccess::Read => {
                if let Some(o) = owner {
                    if o != core {
                        // Forward to the owner, owner supplies data and downgrades.
                        let (fwd, fwd_remote) = params.msg(home, o.unit);
                        let (data, data_remote) = params.msg(o.unit, core.unit);
                        out.latency += fwd + params.l1_latency + data;
                        add_msg(&mut out, fwd_remote);
                        add_msg(&mut out, data_remote);
                        entry.sharers |= 1u64 << o.flat_index(cores_per_unit);
                        entry.owner = None;
                    }
                } else {
                    // Clean miss: fetch from memory at the home node.
                    let (data, data_remote) = params.msg(home, core.unit);
                    out.latency += params.mem_latency + data;
                    add_msg(&mut out, data_remote);
                    out.mem_accesses += 1;
                }
                entry.sharers |= my_bit;
            }
            CoherentAccess::Write | CoherentAccess::Rmw => {
                // Invalidate every other copy; the requester waits for the farthest ack.
                let mut worst_inval = Time::ZERO;
                let mut to_invalidate: Vec<GlobalCoreId> = Vec::new();
                for b in 0..total_cores {
                    let mask = 1u64 << b;
                    if sharers & mask != 0 && mask != my_bit {
                        to_invalidate.push(GlobalCoreId::from_flat(b, cores_per_unit));
                    }
                }
                if let Some(o) = owner {
                    if o != core && !to_invalidate.contains(&o) {
                        to_invalidate.push(o);
                    }
                }
                for victim in &to_invalidate {
                    let (inv, inv_remote) = params.msg(home, victim.unit);
                    let (ack, ack_remote) = params.msg(victim.unit, home);
                    add_msg(&mut out, inv_remote);
                    add_msg(&mut out, ack_remote);
                    out.invalidations += 1;
                    worst_inval = worst_inval.max(inv + params.l1_latency + ack);
                }
                out.latency += worst_inval;

                // Data source: previous owner (dirty) or memory.
                if let Some(o) = owner {
                    if o != core {
                        let (data, data_remote) = params.msg(o.unit, core.unit);
                        out.latency += params.l1_latency + data;
                        add_msg(&mut out, data_remote);
                    }
                } else {
                    let (data, data_remote) = params.msg(home, core.unit);
                    out.latency += params.mem_latency + data;
                    add_msg(&mut out, data_remote);
                    out.mem_accesses += 1;
                }

                entry.sharers = my_bit;
                entry.owner = Some(core);
                if kind == CoherentAccess::Rmw {
                    out.latency += params.rmw_latency;
                }
            }
        }

        self.stats.invalidations.add(out.invalidations as u64);
        self.stats.mem_accesses.add(out.mem_accesses as u64);
        out
    }

    /// Returns the current exclusive owner of the line containing `addr`, if any
    /// (useful for assertions in tests).
    pub fn owner_of(&self, addr: Addr) -> Option<GlobalCoreId> {
        self.lines.get(&addr.line_index()).and_then(|e| e.owner)
    }

    /// Returns the number of cores sharing the line containing `addr`.
    pub fn sharer_count(&self, addr: Addr) -> u32 {
        self.lines
            .get(&addr.line_index())
            .map(|e| e.sharers.count_ones())
            .unwrap_or(0)
    }
}

fn add_msg(out: &mut MesiOutcome, remote: bool) {
    if remote {
        out.inter_msgs += 1;
    } else {
        out.intra_msgs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_sim::CoreId;

    fn core(unit: u8, c: u8) -> GlobalCoreId {
        GlobalCoreId::new(UnitId(unit), CoreId(c))
    }

    fn dir() -> MesiDirectory {
        MesiDirectory::new(4, 16, MesiParams::ndp_default())
    }

    #[test]
    fn read_after_read_hits_locally() {
        let mut d = dir();
        let a = Addr(0x100);
        let miss = d.access(Time::ZERO, core(0, 0), a, CoherentAccess::Read, UnitId(0));
        assert!(!miss.local_hit);
        assert_eq!(miss.mem_accesses, 1);
        let hit = d.access(miss.latency, core(0, 0), a, CoherentAccess::Read, UnitId(0));
        assert!(hit.local_hit);
        assert_eq!(hit.latency, MesiParams::ndp_default().l1_latency);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = dir();
        let a = Addr(0x200);
        for c in 0..4 {
            d.access(Time::ZERO, core(0, c), a, CoherentAccess::Read, UnitId(0));
        }
        assert_eq!(d.sharer_count(a), 4);
        let w = d.access(
            Time::from_us(1),
            core(1, 0),
            a,
            CoherentAccess::Write,
            UnitId(0),
        );
        assert_eq!(w.invalidations, 4);
        assert_eq!(d.sharer_count(a), 1);
        assert_eq!(d.owner_of(a), Some(core(1, 0)));
    }

    #[test]
    fn remote_rmw_costlier_than_local_rmw() {
        let p = MesiParams::ndp_default();
        // Owner in unit 0; requester in unit 0 vs unit 3.
        let mut d_local = dir();
        let mut d_remote = dir();
        let a = Addr(0x300);
        d_local.access(Time::ZERO, core(0, 0), a, CoherentAccess::Rmw, UnitId(0));
        d_remote.access(Time::ZERO, core(0, 0), a, CoherentAccess::Rmw, UnitId(0));
        let local = d_local.access(
            Time::from_us(1),
            core(0, 1),
            a,
            CoherentAccess::Rmw,
            UnitId(0),
        );
        let remote = d_remote.access(
            Time::from_us(1),
            core(3, 1),
            a,
            CoherentAccess::Rmw,
            UnitId(0),
        );
        assert!(remote.latency > local.latency);
        assert!(remote.inter_msgs > 0);
        assert_eq!(local.inter_msgs, 0);
        assert!(local.latency > p.l1_latency);
    }

    #[test]
    fn owner_write_hit_is_cheap() {
        let mut d = dir();
        let a = Addr(0x400);
        d.access(Time::ZERO, core(2, 5), a, CoherentAccess::Write, UnitId(2));
        let again = d.access(
            Time::from_us(1),
            core(2, 5),
            a,
            CoherentAccess::Rmw,
            UnitId(2),
        );
        assert!(again.local_hit);
        assert_eq!(again.intra_msgs + again.inter_msgs, 0);
    }

    #[test]
    fn read_after_remote_write_forwards_from_owner() {
        let mut d = dir();
        let a = Addr(0x500);
        d.access(Time::ZERO, core(0, 0), a, CoherentAccess::Write, UnitId(1));
        let r = d.access(
            Time::from_us(1),
            core(1, 3),
            a,
            CoherentAccess::Read,
            UnitId(1),
        );
        // Data comes from the owner's cache, not memory.
        assert_eq!(r.mem_accesses, 0);
        assert!(!r.local_hit);
        assert_eq!(d.owner_of(a), None);
        assert_eq!(d.sharer_count(a), 2);
    }

    #[test]
    fn directory_serializes_contending_transactions() {
        let mut d = dir();
        let a = Addr(0x600);
        // Two cores issue an RMW at the same instant: the second transaction must wait
        // for the first at the directory, so its latency is strictly larger.
        let first = d.access(Time::ZERO, core(0, 0), a, CoherentAccess::Rmw, UnitId(0));
        let second = d.access(Time::ZERO, core(0, 1), a, CoherentAccess::Rmw, UnitId(0));
        assert!(second.latency > first.latency);
    }

    #[test]
    #[should_panic]
    fn too_many_cores_rejected() {
        let _ = MesiDirectory::new(8, 16, MesiParams::ndp_default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    /// Protocol invariant: a line never has an owner and additional sharers at the
    /// same time (MESI: M is exclusive), and the owner is always also tracked.
    ///
    /// Deterministic stand-in for a proptest property (no crates.io access).
    #[test]
    fn single_writer_invariant() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x3E51_0000 + case);
            let ops = 1 + rng.gen_range(199) as usize;
            let mut d = MesiDirectory::new(2, 4, MesiParams::ndp_default());
            let mut now = Time::ZERO;
            for _ in 0..ops {
                let flat = rng.gen_range(8) as usize;
                let line = rng.gen_range(4);
                let write = rng.gen_bool(0.5);
                let core = GlobalCoreId::from_flat(flat, 4);
                let addr = Addr(line * 64);
                let kind = if write {
                    CoherentAccess::Write
                } else {
                    CoherentAccess::Read
                };
                let out = d.access(now, core, addr, kind, UnitId((line % 2) as u8));
                now += out.latency;
                if write {
                    assert_eq!(d.owner_of(addr), Some(core));
                    assert_eq!(d.sharer_count(addr), 1);
                }
            }
        }
    }
}
