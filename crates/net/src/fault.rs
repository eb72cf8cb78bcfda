//! Deterministic fault injection for inter-unit synchronization traffic.
//!
//! A [`FaultConfig`] describes per-link message drop/duplication probabilities,
//! delay jitter, and periodic per-SE stall windows. A [`FaultEngine`] turns the
//! config plus the scenario seed into concrete per-message verdicts.
//!
//! Every verdict is a **pure function** of `(seed, directed link, per-link
//! sequence number)` — no global RNG is consumed — so faulted runs are
//! reproducible and shard-count-invariant: the link `(from, to)` is only ever
//! used by the shard that owns `from`, and that shard's send order on the link
//! is deterministic. With all probabilities zero the engine issues no faults
//! and the simulation is bit-identical to a faults-off run (knob aliveness is
//! pinned in `tests/invisible_modes.rs`).

use syncron_sim::Time;

/// Fault-injection knobs (default: everything off).
///
/// Faults apply to inter-unit *synchronization* messages (the `RemoteSync`
/// traffic of the protocol engines); data requests/replies are not faulted —
/// the recovery story under test is the sync protocol's timeout/retry path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Master switch. When `false` the fault path is never entered.
    pub enabled: bool,
    /// Per-message drop probability on every directed inter-unit link.
    pub drop_prob: f64,
    /// Per-message duplication probability (the receiver dedups the copy).
    pub dup_prob: f64,
    /// Maximum extra delivery delay in nanoseconds (uniform in `0..=jitter_ns`).
    pub jitter_ns: u64,
    /// Length of each periodic per-SE stall window in nanoseconds (`0` = none).
    pub stall_ns: u64,
    /// Period of the per-SE stall windows in nanoseconds (`0` = no stalls).
    pub stall_period_ns: u64,
    /// Deterministically drop the n-th original (non-retry) message on every
    /// directed link (`0` = off). Drives the single-drop recovery tests.
    pub drop_nth: u64,
    /// Base retransmission timeout in nanoseconds for dropped messages.
    pub retry_timeout_ns: u64,
    /// Exponential-backoff exponent cap: the k-th retry waits
    /// `retry_timeout_ns << min(k, cap)` nanoseconds.
    pub backoff_cap: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            enabled: false,
            drop_prob: 0.0,
            dup_prob: 0.0,
            jitter_ns: 0,
            stall_ns: 0,
            stall_period_ns: 0,
            drop_nth: 0,
            retry_timeout_ns: 2_000,
            backoff_cap: 6,
        }
    }
}

impl FaultConfig {
    /// The retransmission delay before attempt `attempt + 1` (bounded
    /// exponential backoff: `retry_timeout_ns << min(attempt, backoff_cap)`).
    pub fn retry_delay(&self, attempt: u32) -> Time {
        let shift = attempt.min(self.backoff_cap).min(32);
        Time::from_ns(self.retry_timeout_ns.saturating_mul(1u64 << shift))
    }
}

/// Counters of every fault injected and recovered from during a run.
///
/// Merged across shards by field-wise addition; part of report divergence
/// checks so a faulted run's recovery story is itself deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the link (original transmissions and retries).
    pub dropped: u64,
    /// Retransmissions performed after a drop.
    pub retransmitted: u64,
    /// Messages duplicated by the link.
    pub duplicated: u64,
    /// Duplicate copies discarded by receiver-side dedup.
    pub dup_discarded: u64,
    /// Messages that arrived late due to injected jitter.
    pub delayed: u64,
    /// Messages deferred by a per-SE stall window.
    pub stalled: u64,
}

impl FaultStats {
    /// Field-wise sum (shard merge).
    pub fn merge(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.retransmitted += other.retransmitted;
        self.duplicated += other.duplicated;
        self.dup_discarded += other.dup_discarded;
        self.delayed += other.delayed;
        self.stalled += other.stalled;
    }
}

/// The fate of one message transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendVerdict {
    /// The link loses this transmission; the sender must retransmit.
    pub dropped: bool,
    /// The link delivers a second copy (carrying the same [`SendVerdict::tag`]).
    pub duplicated: bool,
    /// Extra delivery delay from jitter (zero when no jitter configured).
    pub jitter: Time,
    /// Extra delay of the duplicate copy beyond the first (at least 1 ns so
    /// the copies are distinct deliveries).
    pub dup_offset: Time,
    /// Transmission tag: unique per `(link, sequence)`, used by receiver-side
    /// dedup to pair duplicate copies.
    pub tag: u64,
}

/// splitmix64 finalizer — the same mixer `syncron_sim::rng` builds on, used
/// here statelessly so verdicts are pure functions of their inputs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 0xD209;
const SALT_DUP: u64 = 0xD0B1;
const SALT_JITTER: u64 = 0x71EE;
const SALT_STALL: u64 = 0x57A1;

/// Per-directed-link transmission counters.
#[derive(Clone, Copy, Debug, Default)]
struct LinkSeq {
    /// All transmissions (originals and retries) — feeds the verdict hash.
    sent: u64,
    /// Original (attempt-0) transmissions — feeds `drop_nth`.
    originals: u64,
}

/// Stateful fault oracle for one shard.
///
/// Holds the per-link sequence counters (sender side — owned by the shard that
/// owns the link's source unit) and the running [`FaultStats`]. Receiver-side
/// duplicate pairing is a separate [`DedupSet`] because it belongs to the
/// *destination* shard.
#[derive(Clone, Debug)]
pub struct FaultEngine {
    config: FaultConfig,
    seed: u64,
    units: usize,
    links: Vec<LinkSeq>,
    /// Counters of faults injected/recovered by this shard.
    pub stats: FaultStats,
}

impl FaultEngine {
    /// Creates an engine for a machine of `units` units, folding the fault
    /// plan's identity out of the scenario seed.
    pub fn new(config: FaultConfig, scenario_seed: u64, units: usize) -> Self {
        FaultEngine {
            config,
            seed: mix(scenario_seed ^ 0x000F_A017_5EED),
            units,
            links: vec![LinkSeq::default(); units * units],
            stats: FaultStats::default(),
        }
    }

    /// The engine's config.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Decides the fate of one transmission on the directed link
    /// `from -> to`. `attempt` is 0 for the original send, `k` for the k-th
    /// retransmission. Advances the link's sequence counters.
    pub fn verdict(&mut self, from: usize, to: usize, attempt: u32) -> SendVerdict {
        let link = from * self.units + to;
        let seq = self.links[link];
        self.links[link].sent += 1;
        if attempt == 0 {
            self.links[link].originals += 1;
        }
        // Guaranteed-unique per (directed link, transmission) tag.
        let tag = ((from as u64) << 48) | ((to as u64) << 40) | (seq.sent & 0xFF_FFFF_FFFF);
        let key = self.seed.wrapping_add(mix((link as u64) << 40 | seq.sent));
        let dropped = (self.config.drop_prob > 0.0
            && unit_f64(mix(key ^ SALT_DROP)) < self.config.drop_prob)
            || (self.config.drop_nth > 0
                && attempt == 0
                && seq.originals + 1 == self.config.drop_nth);
        let duplicated = !dropped
            && self.config.dup_prob > 0.0
            && unit_f64(mix(key ^ SALT_DUP)) < self.config.dup_prob;
        let jitter = if self.config.jitter_ns > 0 {
            Time::from_ns(mix(key ^ SALT_JITTER) % (self.config.jitter_ns + 1))
        } else {
            Time::ZERO
        };
        let dup_offset = if duplicated {
            Time::from_ns(1 + mix(key ^ SALT_JITTER ^ SALT_DUP) % (self.config.jitter_ns + 1))
        } else {
            Time::ZERO
        };
        SendVerdict {
            dropped,
            duplicated,
            jitter,
            dup_offset,
            tag,
        }
    }

    /// Extra delay a message arriving at SE `unit` at time `at` suffers from
    /// that unit's periodic stall window. Pure function of `(seed, unit, at)`,
    /// so sender-side evaluation is shard-invariant.
    pub fn stall_defer(&self, unit: usize, at: Time) -> Time {
        let (len, period) = (self.config.stall_ns, self.config.stall_period_ns);
        if len == 0 || period == 0 {
            return Time::ZERO;
        }
        let phase = mix(self.seed ^ SALT_STALL ^ unit as u64) % period;
        let pos = (at.as_ns().wrapping_add(phase)) % period;
        if pos < len {
            Time::from_ns(len - pos)
        } else {
            Time::ZERO
        }
    }
}

/// Receiver-side duplicate pairing: the first copy of a tagged transmission is
/// delivered (and its tag remembered), the second is discarded (and the tag
/// forgotten, so the set stays bounded by the number of in-flight duplicates).
#[derive(Clone, Debug, Default)]
pub struct DedupSet {
    seen: syncron_sim::hash::FxHashSet<u64>,
}

impl DedupSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        DedupSet::default()
    }

    /// Returns `true` if the copy carrying `tag` must be discarded (its twin
    /// was already delivered).
    pub fn discard(&mut self, tag: u64) -> bool {
        if self.seen.remove(&tag) {
            true
        } else {
            self.seen.insert(tag);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty(drop: f64, dup: f64, jitter: u64) -> FaultConfig {
        FaultConfig {
            enabled: true,
            drop_prob: drop,
            dup_prob: dup,
            jitter_ns: jitter,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn zero_probability_verdicts_are_clean() {
        // Enabled-but-all-zero must behave exactly like faults-off: no drop,
        // no duplicate, no jitter, no stall — the knob-aliveness contract.
        let mut engine = FaultEngine::new(faulty(0.0, 0.0, 0), 42, 4);
        for from in 0..4 {
            for to in 0..4 {
                for attempt in 0..3 {
                    let v = engine.verdict(from, to, attempt);
                    assert!(!v.dropped && !v.duplicated);
                    assert_eq!(v.jitter, Time::ZERO);
                }
            }
        }
        assert_eq!(engine.stall_defer(2, Time::from_ns(1234)), Time::ZERO);
    }

    #[test]
    fn verdicts_are_deterministic_per_seed_and_sequence() {
        let run = |seed: u64| -> Vec<SendVerdict> {
            let mut engine = FaultEngine::new(faulty(0.3, 0.3, 50), seed, 4);
            (0..64)
                .map(|i| engine.verdict(i % 4, (i + 1) % 4, 0))
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same verdict stream");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let verdicts = run(7);
        assert!(verdicts.iter().any(|v| v.dropped));
        assert!(verdicts.iter().any(|v| v.duplicated));
        assert!(verdicts.iter().any(|v| v.jitter > Time::ZERO));
    }

    #[test]
    fn drop_nth_drops_exactly_the_nth_original_per_link() {
        let mut config = FaultConfig {
            enabled: true,
            drop_nth: 3,
            ..FaultConfig::default()
        };
        config.drop_prob = 0.0;
        let mut engine = FaultEngine::new(config, 9, 2);
        let fates: Vec<bool> = (0..6).map(|_| engine.verdict(0, 1, 0).dropped).collect();
        assert_eq!(fates, [false, false, true, false, false, false]);
        // Retransmissions (attempt > 0) are never counted or dropped.
        let mut engine = FaultEngine::new(config, 9, 2);
        engine.verdict(0, 1, 0);
        engine.verdict(0, 1, 0);
        assert!(!engine.verdict(0, 1, 1).dropped, "retry is not an original");
        assert!(
            engine.verdict(0, 1, 0).dropped,
            "3rd original still dropped"
        );
    }

    #[test]
    fn stall_windows_are_periodic_and_unit_phased() {
        let config = FaultConfig {
            enabled: true,
            stall_ns: 100,
            stall_period_ns: 1_000,
            ..FaultConfig::default()
        };
        let engine = FaultEngine::new(config, 1, 4);
        // Somewhere in each period the defer is nonzero, and deferring past
        // the window makes it zero: defer(t) + t lands at the window's end.
        for unit in 0..4 {
            let mut saw_stall = false;
            for ns in 0..1_000 {
                let t = Time::from_ns(ns);
                let defer = engine.stall_defer(unit, t);
                if defer > Time::ZERO {
                    saw_stall = true;
                    assert!(defer.as_ns() <= 100);
                    assert_eq!(
                        engine.stall_defer(unit, t + defer),
                        Time::ZERO,
                        "deferred arrival must clear the window"
                    );
                }
            }
            assert!(saw_stall, "unit {unit} never stalls");
        }
        // Units are phase-shifted, not synchronized: compare each unit's
        // window start (the first instant with a full-length defer).
        let starts: Vec<Option<u64>> = (0..4)
            .map(|u| (0..1_000).find(|&ns| engine.stall_defer(u, Time::from_ns(ns)).as_ns() == 100))
            .collect();
        assert!(
            starts.windows(2).any(|w| w[0] != w[1]),
            "all units share one phase: {starts:?}"
        );
    }

    #[test]
    fn retry_backoff_is_exponential_and_bounded() {
        let config = FaultConfig {
            retry_timeout_ns: 100,
            backoff_cap: 3,
            ..FaultConfig::default()
        };
        assert_eq!(config.retry_delay(0).as_ns(), 100);
        assert_eq!(config.retry_delay(1).as_ns(), 200);
        assert_eq!(config.retry_delay(3).as_ns(), 800);
        assert_eq!(config.retry_delay(9).as_ns(), 800, "capped at 2^cap");
    }

    #[test]
    fn dedup_pairs_copies_and_stays_bounded() {
        let mut set = DedupSet::new();
        assert!(!set.discard(7), "first copy delivers");
        assert!(set.discard(7), "second copy is discarded");
        assert!(!set.discard(7), "tag forgotten after pairing");
        set.discard(7);
        for tag in 0..100 {
            set.discard(tag);
            set.discard(tag);
        }
        assert!(set.seen.is_empty(), "paired tags must not accumulate");
    }
}
