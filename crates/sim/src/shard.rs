//! Conservative-PDES building blocks: shard partitioning, per-shard event keys,
//! cross-shard mailboxes, the round ledger that decides each window, and the
//! window barrier.
//!
//! A partitioned simulation splits its state into `shards` that each own a
//! contiguous range of units and advance in **bounded time windows**: every
//! round, the shards agree on the global minimum pending timestamp `T_min` and
//! each processes only events strictly before `T_min + lookahead`, where the
//! lookahead is the guaranteed minimum latency of any cross-shard interaction.
//! Any message generated during the window is timestamped at or after its send
//! time plus the lookahead, hence at or after the window end — so no shard can
//! ever receive a message for a point in time it has already passed. Cross-shard
//! messages travel through [`mailboxes`] and are drained between the two phases
//! of the [`WindowGate`] round, so a freshly received message always takes part
//! in the next window computation. The window rules themselves — budget,
//! watchdog, finish, window end — live in [`RoundLedger`]: the gate runs one
//! under its lock, and a one-shard run owns one and needs no gate or mailbox.
//!
//! Equal-timestamp determinism across shard counts comes from [`event_key`]:
//! every event carries a `(origin unit, per-unit counter)` key used as the
//! queue tiebreak, so the pop order within a timestamp is a property of the
//! simulation, not of which host thread pushed first.

use crate::time::Time;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex};

/// Number of low bits of an event key reserved for the per-unit counter.
pub const KEY_COUNTER_BITS: u32 = 48;

/// Builds the stable equal-timestamp tiebreak key for an event originated by
/// `unit` as its `counter`-th push.
///
/// Keys order first by originating unit, then by that unit's push counter, so
/// the interleaving of events from different units at one timestamp is fixed by
/// the simulation itself and identical under any sharding. The 48-bit counter
/// space (~2.8 · 10^14 pushes per unit) is far beyond any event budget.
///
/// # Panics
///
/// Panics if the counter overflows its 48-bit field (a runaway simulation; the
/// event budget aborts runs orders of magnitude earlier).
#[inline]
pub fn event_key(unit: usize, counter: u64) -> u64 {
    assert!(
        counter < (1u64 << KEY_COUNTER_BITS),
        "event key counter overflow for unit {unit}"
    );
    ((unit as u64) << KEY_COUNTER_BITS) | counter
}

/// A contiguous partition of `units` simulation units into `shards` shards.
///
/// Units are assigned in order, balanced to within one unit per shard. The map
/// answers `unit -> shard` in O(1) and the owned range of each shard.
#[derive(Clone, Debug)]
pub struct ShardMap {
    units: usize,
    /// `starts[s]..starts[s + 1]` is the unit range owned by shard `s`.
    starts: Vec<usize>,
    /// Dense `unit -> shard` table.
    owner: Vec<u32>,
}

impl ShardMap {
    /// Partitions `units` units into `min(shards, units)` contiguous shards.
    ///
    /// # Panics
    ///
    /// Panics if `units` or `shards` is zero.
    pub fn new(units: usize, shards: usize) -> Self {
        assert!(units > 0, "cannot partition zero units");
        assert!(shards > 0, "cannot partition into zero shards");
        let shards = shards.min(units);
        let base = units / shards;
        let extra = units % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut owner = vec![0u32; units];
        let mut unit = 0usize;
        for s in 0..shards {
            starts.push(unit);
            let len = base + usize::from(s < extra);
            for slot in &mut owner[unit..unit + len] {
                *slot = s as u32;
            }
            unit += len;
        }
        starts.push(units);
        ShardMap {
            units,
            starts,
            owner,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of units partitioned.
    pub fn units(&self) -> usize {
        self.units
    }

    /// The shard owning `unit`.
    ///
    /// # Panics
    ///
    /// Panics — naming the unit — when `unit` is outside the partitioned
    /// geometry. An out-of-range unit in a routed message is always a bug in the
    /// sender; dropping it silently would strand the simulation.
    #[inline]
    pub fn shard_of(&self, unit: usize) -> usize {
        match self.owner.get(unit) {
            Some(&s) => s as usize,
            None => panic!(
                "message routed to unit U{unit}, which is outside the sharded \
                 geometry of {} units: no shard owns it",
                self.units
            ),
        }
    }

    /// The contiguous unit range owned by `shard`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        self.starts[shard]..self.starts[shard + 1]
    }
}

/// One cross-shard message: `(arrival time, event key, payload)`.
pub type Mail<E> = (Time, u64, E);

/// Builds the all-to-all mailbox fabric for `shards` shards.
///
/// Returns, for every shard, its receiving endpoint and one sender per peer
/// shard (`senders[s][d]` sends from shard `s` to shard `d`; the self-slot is
/// present for uniform indexing but a shard normally pushes straight into its
/// own queue instead).
#[allow(clippy::type_complexity)]
pub fn mailboxes<E>(shards: usize) -> (Vec<Vec<Sender<Mail<E>>>>, Vec<Receiver<Mail<E>>>) {
    let mut txs: Vec<Vec<Sender<Mail<E>>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut rxs = Vec::with_capacity(shards);
    for _dest in 0..shards {
        let (tx, rx) = channel();
        for row in txs.iter_mut() {
            row.push(tx.clone());
        }
        rxs.push(rx);
    }
    (txs, rxs)
}

/// What one shard reports at the end of a window round.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundReport {
    /// Earliest pending local event (after draining the mailbox), if any.
    pub local_min: Option<Time>,
    /// Events this shard delivered since its previous report.
    pub events_delta: u64,
    /// Core programs that finished since the previous report.
    pub done_delta: u64,
    /// Forward-progress units (program actions consumed by cores) since the
    /// previous report — the liveness watchdog's signal. Events that circulate
    /// without any core advancing (e.g. a retransmission storm) leave this at
    /// zero, which is exactly the no-progress condition the watchdog detects.
    pub progress_delta: u64,
}

/// Why a [`RoundLedger`] stopped a run before completion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortCause {
    /// The global event budget is exhausted.
    Budget,
    /// The liveness watchdog fired: more than the configured number of events
    /// were delivered without any core making forward progress.
    Stall,
}

/// A [`RoundLedger`]'s verdict for the next window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundDecision {
    /// Process every event strictly before `window_end`, then come back.
    Continue {
        /// Exclusive upper bound of the next window (`T_min + lookahead`).
        window_end: Time,
    },
    /// Every queue and mailbox is empty: the simulation is over.
    Finished,
    /// The run stops at this boundary; all shards observe the same cause.
    Aborted {
        /// Why the run was stopped.
        cause: AbortCause,
    },
}

/// The decision rules of a window round, without the barrier.
///
/// Every shard's [`RoundReport`] is folded in with [`RoundLedger::fold`];
/// [`RoundLedger::decide`] then turns the round's totals into the next
/// [`RoundDecision`]: abort once the global event budget is exhausted or the
/// liveness watchdog fires, finish once nothing is pending anywhere, and
/// otherwise open the window `[T_min, T_min + lookahead)`. A [`WindowGate`]
/// keeps one ledger for a sharded run and runs it under its lock; a
/// sequential run owns one directly and needs no gate at all.
#[derive(Debug)]
pub struct RoundLedger {
    lookahead: Time,
    max_events: u64,
    /// Liveness watchdog: abort once this many events are delivered without
    /// any shard reporting progress (`0` disables the watchdog).
    watchdog_limit: u64,
    round_min: Option<Time>,
    events_total: u64,
    /// Progress units reported in the current round (reset every round).
    round_progress: u64,
    /// `events_total` as of the last round that reported any progress.
    events_at_progress: u64,
}

impl RoundLedger {
    /// Creates a ledger with the given lookahead, global event budget and
    /// liveness-watchdog limit (`0` disables the watchdog: runs then only stop
    /// on completion or budget exhaustion).
    pub fn new(lookahead: Time, max_events: u64, watchdog_limit: u64) -> Self {
        RoundLedger {
            lookahead,
            max_events,
            watchdog_limit,
            round_min: None,
            events_total: 0,
            round_progress: 0,
            events_at_progress: 0,
        }
    }

    /// Adds one shard's report to the current round.
    pub fn fold(&mut self, report: RoundReport) {
        self.round_min = match (self.round_min, report.local_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.events_total += report.events_delta;
        // A finished core is forward progress too: a run in its final
        // drain delivers events while no remaining core steps.
        self.round_progress += report.progress_delta + report.done_delta;
    }

    /// Closes the current round: the decision for the next window, derived
    /// from every report folded in since the previous decision.
    pub fn decide(&mut self) -> RoundDecision {
        if self.round_progress > 0 {
            self.events_at_progress = self.events_total;
            self.round_progress = 0;
        }
        let round_min = self.round_min.take();
        if self.events_total > self.max_events {
            RoundDecision::Aborted {
                cause: AbortCause::Budget,
            }
        } else if self.watchdog_limit > 0
            && self.events_total.saturating_sub(self.events_at_progress) > self.watchdog_limit
        {
            RoundDecision::Aborted {
                cause: AbortCause::Stall,
            }
        } else {
            match round_min {
                None => RoundDecision::Finished,
                Some(min) => RoundDecision::Continue {
                    window_end: Time::from_ps(min.as_ps().saturating_add(self.lookahead.as_ps())),
                },
            }
        }
    }
}

struct GateState {
    arrived: usize,
    generation: u64,
    /// Waiters blocked (or about to block) on the condvar. The last arriver
    /// reads it under the lock that publishes the new generation and wakes
    /// the condvar only when it is non-zero.
    sleepers: usize,
    ledger: RoundLedger,
    decision: RoundDecision,
}

/// The two-phase window barrier of a sharded run.
///
/// Every round, each shard:
///
/// 1. calls [`WindowGate::arrive`] after processing its window — once it
///    returns, every cross-shard send of the finished window is visible in the
///    destination mailboxes (the barrier's lock ordering is the happens-before
///    edge);
/// 2. drains its mailbox into its local queue;
/// 3. calls [`WindowGate::resolve`] with its new local minimum — the reports
///    fold into the gate's [`RoundLedger`], and the last arriver draws the
///    next [`RoundDecision`] from it, which every shard observes identically.
///
/// A shard whose queue has drained keeps participating with `local_min: None`
/// until the gate answers [`RoundDecision::Finished`], so window advancement
/// never deadlocks on an idle shard.
///
/// Windows are short — often a few microseconds of host work — so waiters
/// first spin on a lock-free generation counter before falling back to the
/// condvar; a blocking wakeup per phase would otherwise dominate the run.
/// The last arriver wakes the condvar only when a waiter sleeps on it, so a
/// phase that every peer saw while spinning costs no wake syscall.
pub struct WindowGate {
    parties: usize,
    /// Lock-free mirror of [`GateState::generation`], bumped by the last
    /// arriver of each phase (while holding the lock, so the two never
    /// disagree for a blocked waiter). Spun on by the fast wait path.
    generation: AtomicU64,
    /// Spin iterations before a waiter blocks: [`GATE_SPIN_ITERS`] when the
    /// host can run every party on its own CPU, `0` otherwise — on an
    /// oversubscribed host a spinner burns exactly the timeslice the working
    /// shard needs, inverting the optimization.
    spin_iters: u32,
    state: Mutex<GateState>,
    cv: Condvar,
}

/// Spin iterations before a gate waiter falls back to blocking on the condvar.
/// Sized to cover a typical window's worth of host work (a few microseconds);
/// an imbalanced or descheduled peer parks the waiter instead of burning CPU.
const GATE_SPIN_ITERS: u32 = 20_000;

impl std::fmt::Debug for WindowGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowGate")
            .field("parties", &self.parties)
            .finish()
    }
}

impl WindowGate {
    /// Creates a gate for `parties` shards whose rounds `ledger` decides.
    pub fn new(parties: usize, ledger: RoundLedger) -> Self {
        assert!(parties > 0, "a window gate needs at least one shard");
        WindowGate {
            parties,
            generation: AtomicU64::new(0),
            spin_iters: if std::thread::available_parallelism().map_or(1, |n| n.get()) >= parties {
                GATE_SPIN_ITERS
            } else {
                0
            },
            state: Mutex::new(GateState {
                arrived: 0,
                generation: 0,
                sleepers: 0,
                ledger,
                decision: RoundDecision::Finished,
            }),
            cv: Condvar::new(),
        }
    }

    fn phase(&self, on_last: impl FnOnce(&mut GateState)) {
        let gen = {
            let mut g = self.state.lock().expect("window gate poisoned");
            g.arrived += 1;
            if g.arrived == self.parties {
                g.arrived = 0;
                on_last(&mut g);
                g.generation += 1;
                // Publish while still holding the lock so a blocked waiter
                // never observes the atomic ahead of the guarded state.
                self.generation.store(g.generation, Ordering::Release);
                // A waiter counts itself under this lock before it blocks, so
                // a zero here means nobody can miss the new generation.
                let wake = g.sleepers > 0;
                drop(g);
                if wake {
                    self.cv.notify_all();
                }
                return;
            }
            g.generation
        };
        // Fast path: the peers are mid-window; their arrival is typically
        // microseconds away. The Acquire load pairs with the last arriver's
        // Release store, so everything it reduced is visible on return.
        for _ in 0..self.spin_iters {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        let mut g = self.state.lock().expect("window gate poisoned");
        g.sleepers += 1;
        while g.generation == gen {
            g = self.cv.wait(g).expect("window gate poisoned");
        }
        g.sleepers -= 1;
    }

    /// Phase 1: marks this shard's window as fully processed (all sends done).
    pub fn arrive(&self) {
        self.phase(|_| {});
    }

    /// Phase 2: submits this shard's round report and returns the decision for
    /// the next window (identical for every shard of the round).
    pub fn resolve(&self, report: RoundReport) -> RoundDecision {
        self.state
            .lock()
            .expect("window gate poisoned")
            .ledger
            .fold(report);
        self.phase(|g| g.decision = g.ledger.decide());
        self.state.lock().expect("window gate poisoned").decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_balances_contiguously() {
        let map = ShardMap::new(10, 4);
        assert_eq!(map.shards(), 4);
        assert_eq!(map.range(0), 0..3);
        assert_eq!(map.range(1), 3..6);
        assert_eq!(map.range(2), 6..8);
        assert_eq!(map.range(3), 8..10);
        for u in 0..10 {
            let s = map.shard_of(u);
            assert!(map.range(s).contains(&u), "unit {u} not in its shard range");
        }
    }

    #[test]
    fn shard_map_clamps_to_unit_count() {
        let map = ShardMap::new(3, 8);
        assert_eq!(map.shards(), 3);
        for u in 0..3 {
            assert_eq!(map.range(map.shard_of(u)).len(), 1);
        }
    }

    #[test]
    fn unknown_unit_is_a_hard_error_naming_the_unit() {
        let map = ShardMap::new(4, 2);
        let err = std::panic::catch_unwind(|| map.shard_of(7)).unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("U7"), "panic must name the unit: {msg}");
        assert!(
            msg.contains("4 units"),
            "panic must name the geometry: {msg}"
        );
    }

    #[test]
    fn event_keys_order_by_unit_then_counter() {
        assert!(event_key(0, 5) < event_key(1, 0));
        assert!(event_key(3, 7) < event_key(3, 8));
        assert_eq!(event_key(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn event_key_counter_overflow_panics() {
        event_key(1, 1u64 << KEY_COUNTER_BITS);
    }

    #[test]
    fn mailboxes_deliver_across_threads() {
        let (txs, rxs) = mailboxes::<u32>(2);
        let mut rxs = rxs.into_iter();
        let rx0 = rxs.next().unwrap();
        let _rx1 = rxs.next().unwrap();
        let tx = txs[1][0].clone();
        std::thread::spawn(move || {
            tx.send((Time::from_ns(3), 42, 7)).unwrap();
        })
        .join()
        .unwrap();
        assert_eq!(rx0.try_recv().unwrap(), (Time::from_ns(3), 42, 7));
    }

    // The window rules live in `RoundLedger`, which every sequential run
    // drives directly and the gate runs under its lock, so they are checked
    // on the ledger itself; the gate's tests below cover only the barrier.

    #[test]
    fn gate_single_party_reduces_immediately() {
        let mut ledger = RoundLedger::new(Time::from_ns(40), 1_000, 0);
        ledger.fold(RoundReport {
            local_min: Some(Time::from_ns(10)),
            events_delta: 5,
            done_delta: 0,
            progress_delta: 5,
        });
        assert_eq!(
            ledger.decide(),
            RoundDecision::Continue {
                window_end: Time::from_ns(50)
            }
        );
        ledger.fold(RoundReport::default());
        assert_eq!(ledger.decide(), RoundDecision::Finished);
        assert_eq!(ledger.events_total, 5);
    }

    #[test]
    fn gate_aborts_when_budget_exhausted() {
        let mut ledger = RoundLedger::new(Time::from_ns(1), 10, 0);
        ledger.fold(RoundReport {
            local_min: Some(Time::ZERO),
            events_delta: 11,
            done_delta: 0,
            progress_delta: 11,
        });
        assert_eq!(
            ledger.decide(),
            RoundDecision::Aborted {
                cause: AbortCause::Budget
            }
        );
    }

    #[test]
    fn gate_watchdog_aborts_on_no_progress_and_resets_on_progress() {
        // Limit 20: rounds that deliver events with zero progress accumulate
        // toward the watchdog; a single progress report resets the window.
        let mut ledger = RoundLedger::new(Time::from_ns(1), u64::MAX, 20);
        let mut round = |report: RoundReport| {
            ledger.fold(report);
            ledger.decide()
        };
        let stalled_round = RoundReport {
            local_min: Some(Time::ZERO),
            events_delta: 9,
            done_delta: 0,
            progress_delta: 0,
        };
        assert!(matches!(
            round(stalled_round),
            RoundDecision::Continue { .. }
        ));
        assert!(matches!(
            round(stalled_round),
            RoundDecision::Continue { .. }
        ));
        // 27 events without progress — but this round reports progress, so the
        // watchdog window restarts instead of firing.
        assert!(matches!(
            round(RoundReport {
                progress_delta: 1,
                ..stalled_round
            }),
            RoundDecision::Continue { .. }
        ));
        // Now stall for real: 18 events (no fire) then 9 more (fire).
        assert!(matches!(
            round(RoundReport {
                events_delta: 18,
                ..stalled_round
            }),
            RoundDecision::Continue { .. }
        ));
        assert_eq!(
            round(stalled_round),
            RoundDecision::Aborted {
                cause: AbortCause::Stall
            }
        );
    }

    #[test]
    fn gate_watchdog_counts_done_cores_as_progress() {
        let mut ledger = RoundLedger::new(Time::from_ns(1), u64::MAX, 10);
        // 25 events, no core stepped, but cores finished: the final drain of a
        // completing run must never trip the watchdog.
        ledger.fold(RoundReport {
            local_min: Some(Time::ZERO),
            events_delta: 25,
            done_delta: 2,
            progress_delta: 0,
        });
        assert!(matches!(ledger.decide(), RoundDecision::Continue { .. }));
    }

    /// Drives one thread per party of `gate` through `rounds` rounds and a
    /// final empty one, then checks that every thread observed the same
    /// decisions: windows opened at the global minimum, then `Finished`.
    /// Party `s` reports its earliest event at `round * 100 + s` ns, except
    /// that party 3 has drained after the first round.
    fn drive_gate(gate: WindowGate, rounds: u64) {
        let gate = std::sync::Arc::new(gate);
        let handles: Vec<_> = (0..gate.parties)
            .map(|s| {
                let gate = std::sync::Arc::clone(&gate);
                std::thread::spawn(move || {
                    let mut decisions = Vec::new();
                    for round in 0..rounds {
                        gate.arrive();
                        let min =
                            (round == 0 || s != 3).then(|| Time::from_ns(round * 100 + s as u64));
                        decisions.push(gate.resolve(RoundReport {
                            local_min: min,
                            events_delta: 1,
                            done_delta: 0,
                            progress_delta: 1,
                        }));
                    }
                    gate.arrive();
                    decisions.push(gate.resolve(RoundReport::default()));
                    decisions
                })
            })
            .collect();
        let all: Vec<Vec<RoundDecision>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &all[1..] {
            assert_eq!(&all[0], other, "shards observed different decisions");
        }
        let (last, windows) = all[0].split_last().unwrap();
        for (round, d) in windows.iter().enumerate() {
            assert_eq!(
                *d,
                RoundDecision::Continue {
                    window_end: Time::from_ns(round as u64 * 100 + 40)
                }
            );
        }
        assert_eq!(*last, RoundDecision::Finished);
        assert_eq!(
            gate.state.lock().unwrap().ledger.events_total,
            rounds * gate.parties as u64
        );
    }

    #[test]
    fn gate_reduces_min_across_threads() {
        // Four shards, several rounds: every shard must observe the same
        // decision, derived from the global minimum.
        let ledger = RoundLedger::new(Time::from_ns(40), u64::MAX, 0);
        drive_gate(WindowGate::new(4, ledger), 3);
    }

    #[test]
    fn gate_wakes_every_blocked_waiter() {
        // One party more than the host has CPUs: the gate never spins, so
        // every waiter of every phase blocks on the condvar and is woken only
        // through the sleeper count. A lost wake-up hangs this test.
        let parties = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
        let gate = WindowGate::new(parties, RoundLedger::new(Time::from_ns(40), u64::MAX, 0));
        assert_eq!(gate.spin_iters, 0, "an oversubscribed gate must not spin");
        drive_gate(gate, 300);
    }
}
