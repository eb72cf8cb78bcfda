//! Evaluation reports.
//!
//! A [`RunReport`] captures everything the paper's evaluation figures need from one
//! simulation: execution time (speedups, Figures 10–13, 16–23), energy broken down into
//! cache / network / memory (Figure 14), data movement inside and across NDP units
//! (Figure 15), and the synchronization mechanism's statistics (ST occupancy for
//! Table 7 and Figure 19, overflow fractions for Figures 22 and 23).

use syncron_core::mechanism::SyncMechanismStats;
use syncron_mem::energy::EnergyTally;
pub use syncron_net::fault::FaultStats;
use syncron_net::traffic::TrafficStats;
use syncron_sim::stats::LogHistogram;
use syncron_sim::time::Time;

/// Host-side simulator performance counters for one run.
///
/// Unlike every other [`RunReport`] field these depend on the host machine and
/// load, not on the simulated system: two runs of the same scenario produce
/// identical simulation results but different `SimPerf`. Determinism comparisons
/// ([`RunReport::same_simulation`]) therefore ignore this struct; the throughput
/// benchmarks (`BENCH_simcore.json`) are built from it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimPerf {
    /// Wall-clock duration of the run loop in seconds.
    pub wall_seconds: f64,
    /// Events the run loop delivered, including the deliveries of a truncated
    /// (`completed = false`) run.
    pub events_delivered: u64,
    /// Shards the run actually executed with (`1` = sequential, which includes
    /// every sequential fallback of a `sim_threads > 1` request). Host-side
    /// like the rest of [`SimPerf`]: the simulated result never depends on it.
    pub shards: usize,
}

impl SimPerf {
    /// Simulator throughput in delivered events per wall-clock second (`0.0` when
    /// the run was too fast for the clock to resolve).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events_delivered as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Tail-latency summary of an open-loop run: per-request admission→completion
/// times (including queueing delay while the serving core was backlogged),
/// aggregated across all client cores.
///
/// Present only when the workload measures per-request latency (the open-loop
/// service workloads); closed-loop workloads leave
/// [`RunReport::latency`] as `None`. The quantiles come from the interpolated
/// [`LogHistogram`], so they are simulation-determined and compared bit-for-bit
/// by [`RunReport::divergence_from`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyReport {
    /// Requests measured.
    pub ops: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Median latency in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: f64,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: f64,
    /// Worst recorded latency in nanoseconds.
    pub max_ns: u64,
}

impl LatencyReport {
    /// Summarizes a latency histogram (nanosecond samples). Returns `None` for an
    /// empty histogram.
    pub fn from_histogram(hist: &LogHistogram) -> Option<LatencyReport> {
        if hist.total() == 0 {
            return None;
        }
        Some(LatencyReport {
            ops: hist.total(),
            mean_ns: hist.mean(),
            p50_ns: hist.quantile(0.50).expect("non-empty"),
            p99_ns: hist.quantile(0.99).expect("non-empty"),
            p999_ns: hist.quantile(0.999).expect("non-empty"),
            max_ns: hist.max(),
        })
    }
}

/// How the liveness watchdog detected that a run was stuck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Every event queue drained while unfinished cores were still parked on
    /// synchronization variables: a classic deadlock.
    EmptyFrontier,
    /// Events kept circulating but no core consumed a program action for
    /// longer than the watchdog threshold: a livelock (e.g. a retransmission
    /// storm under total message loss).
    NoProgress,
}

/// One core the watchdog found blocked, and what it was waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedCore {
    /// NDP unit of the blocked core.
    pub unit: usize,
    /// Core index within the unit.
    pub core: usize,
    /// Address of the synchronization variable the core's pending request
    /// named (the lock/barrier/semaphore/condvar it is waiting on).
    pub addr: u64,
}

/// Structured diagnosis of a stalled run, produced by the liveness watchdog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// How the stall was detected.
    pub kind: StallKind,
    /// The blocked cores and the sync-variable addresses they wait on, in
    /// global core order (truncated to the first
    /// [`StallReport::BLOCKED_CAP`]; `blocked_total` has the full count).
    pub blocked: Vec<BlockedCore>,
    /// Total number of cores blocked on a synchronization request.
    pub blocked_total: usize,
    /// Total number of cores that had not finished their program.
    pub unfinished: usize,
}

impl StallReport {
    /// Maximum blocked cores listed individually in a report.
    pub const BLOCKED_CAP: usize = 16;
}

/// Why a run ended without completing (`RunReport::completed == false`).
#[derive(Clone, Debug, PartialEq)]
pub enum IncompleteReason {
    /// The global event safety limit (`max_events`) was exhausted.
    EventBudget,
    /// The liveness watchdog aborted the run; the report names the blocked
    /// cores and the addresses they wait on.
    Stalled(StallReport),
    /// The simulation panicked; the payload is the panic message. Synthesized
    /// by the harness runner's per-scenario isolation — the machine itself
    /// never returns this.
    Panicked(String),
}

impl IncompleteReason {
    /// Compact machine-readable label (the CSV `incomplete_reason` cell).
    pub fn label(&self) -> &'static str {
        match self {
            IncompleteReason::EventBudget => "event-budget",
            IncompleteReason::Stalled(s) => match s.kind {
                StallKind::EmptyFrontier => "stalled-deadlock",
                StallKind::NoProgress => "stalled-no-progress",
            },
            IncompleteReason::Panicked(_) => "panicked",
        }
    }
}

/// The outcome of one workload run on one configuration.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Synchronization mechanism name.
    pub mechanism: String,
    /// Simulated execution time (from start until the last client core finished).
    pub sim_time: Time,
    /// Whether every core finished before the event safety limit was hit.
    pub completed: bool,
    /// Application-level operations completed (data-structure ops, vertices, …).
    pub total_ops: u64,
    /// Instructions executed by client cores (compute actions).
    pub instructions: u64,
    /// Load actions executed.
    pub loads: u64,
    /// Store actions executed.
    pub stores: u64,
    /// Synchronization requests issued.
    pub sync_requests: u64,
    /// Energy breakdown.
    pub energy: EnergyTally,
    /// Data movement split into intra-unit and inter-unit bytes.
    pub traffic: TrafficStats,
    /// Synchronization mechanism statistics (messages, memory accesses, ST occupancy).
    pub sync: SyncMechanismStats,
    /// DRAM accesses performed (all units).
    pub dram_accesses: u64,
    /// Hit ratio across the client cores' L1 caches.
    pub l1_hit_ratio: f64,
    /// Per-request tail latency of open-loop runs; `None` for closed-loop
    /// workloads.
    pub latency: Option<LatencyReport>,
    /// Typed reason the run ended incomplete; `None` exactly when
    /// [`RunReport::completed`] is `true`.
    pub incomplete: Option<IncompleteReason>,
    /// Fault-injection and recovery counters; `None` when fault injection is
    /// disabled, `Some` (possibly all-zero) when enabled. Compared by
    /// [`RunReport::divergence_from`] treating `None` as all-zero, so an
    /// enabled-but-all-zero run is equivalent to a faults-off run.
    pub faults: Option<FaultStats>,
    /// Host-side simulator performance (wall time, delivered events). Not part of
    /// the simulated result; ignored by [`RunReport::same_simulation`].
    pub perf: SimPerf,
}

impl RunReport {
    /// Builds a zeroed report for a run that produced no results at all —
    /// used by the harness runner to record a panicked scenario in its result
    /// set instead of aborting the whole sweep.
    pub fn failed(
        workload: impl Into<String>,
        mechanism: impl Into<String>,
        reason: IncompleteReason,
    ) -> RunReport {
        RunReport {
            workload: workload.into(),
            mechanism: mechanism.into(),
            sim_time: Time::ZERO,
            completed: false,
            total_ops: 0,
            instructions: 0,
            loads: 0,
            stores: 0,
            sync_requests: 0,
            energy: EnergyTally::default(),
            traffic: TrafficStats::default(),
            sync: SyncMechanismStats::default(),
            dram_accesses: 0,
            l1_hit_ratio: 0.0,
            latency: None,
            incomplete: Some(reason),
            faults: None,
            perf: SimPerf::default(),
        }
    }

    /// Throughput in operations per millisecond (the unit of Figure 11).
    pub fn ops_per_ms(&self) -> f64 {
        let ms = self.sim_time.as_ms_f64();
        if ms <= 0.0 {
            0.0
        } else {
            self.total_ops as f64 / ms
        }
    }

    /// Throughput in operations per microsecond (the unit of Figure 16).
    pub fn ops_per_us(&self) -> f64 {
        self.ops_per_ms() / 1000.0
    }

    /// Speedup of this run relative to `baseline` (`> 1` means this run is faster).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        let own = self.sim_time.as_ps();
        if own == 0 {
            return 0.0;
        }
        baseline.sim_time.as_ps() as f64 / own as f64
    }

    /// Slowdown of this run relative to `baseline` (`> 1` means this run is slower).
    pub fn slowdown_over(&self, baseline: &RunReport) -> f64 {
        let base = baseline.sim_time.as_ps();
        if base == 0 {
            return 0.0;
        }
        self.sim_time.as_ps() as f64 / base as f64
    }

    /// Ratio of this run's total energy to `baseline`'s (`< 1` means this run uses
    /// less energy).
    pub fn energy_ratio_over(&self, baseline: &RunReport) -> f64 {
        let base = baseline.energy.total_pj();
        if base <= 0.0 {
            return 0.0;
        }
        self.energy.total_pj() / base
    }

    /// Ratio of this run's total data movement to `baseline`'s.
    pub fn data_movement_ratio_over(&self, baseline: &RunReport) -> f64 {
        let base = baseline.traffic.total_bytes();
        if base == 0 {
            return 0.0;
        }
        self.traffic.total_bytes() as f64 / base as f64
    }

    /// Whether two reports describe the same simulation outcome, ignoring the
    /// host-side [`SimPerf`] counters.
    ///
    /// This is the determinism contract the differential tests enforce: shard
    /// counts, message batching, burst resume and zero-probability faults must
    /// all produce bit-identical reports.
    pub fn same_simulation(&self, other: &RunReport) -> bool {
        self.divergence_from(other).is_none()
    }

    /// Names the first simulation-determined field in which `self` and `other`
    /// differ (ignoring [`SimPerf`]), or `None` when the reports agree.
    ///
    /// Floating-point fields are compared bit-for-bit: a deterministic simulator
    /// must reproduce them exactly, not approximately.
    pub fn divergence_from(&self, other: &RunReport) -> Option<String> {
        macro_rules! diff {
            ($field:ident) => {
                if self.$field != other.$field {
                    return Some(format!(
                        "{}: {:?} != {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        diff!(workload);
        diff!(mechanism);
        diff!(sim_time);
        diff!(completed);
        diff!(total_ops);
        diff!(instructions);
        diff!(loads);
        diff!(stores);
        diff!(sync_requests);
        diff!(traffic);
        diff!(sync);
        diff!(dram_accesses);
        diff!(incomplete);
        // Fault counters: `None` (injection disabled) compares equal to
        // `Some` all-zero (enabled but nothing fired) — the knob-aliveness
        // contract; any injected fault or recovery must agree exactly.
        let (fault_a, fault_b) = (
            self.faults.unwrap_or_default(),
            other.faults.unwrap_or_default(),
        );
        if fault_a != fault_b {
            return Some(format!("faults: {fault_a:?} != {fault_b:?}"));
        }
        match (&self.latency, &other.latency) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                if a.ops != b.ops || a.max_ns != b.max_ns {
                    return Some(format!("latency: {a:?} != {b:?}"));
                }
                for (name, x, y) in [
                    ("latency.mean_ns", a.mean_ns, b.mean_ns),
                    ("latency.p50_ns", a.p50_ns, b.p50_ns),
                    ("latency.p99_ns", a.p99_ns, b.p99_ns),
                    ("latency.p999_ns", a.p999_ns, b.p999_ns),
                ] {
                    if x.to_bits() != y.to_bits() {
                        return Some(format!("{name}: {x:?} != {y:?}"));
                    }
                }
            }
            (a, b) => return Some(format!("latency: {a:?} != {b:?}")),
        }
        for (name, a, b) in [
            (
                "energy.cache_pj",
                self.energy.cache_pj,
                other.energy.cache_pj,
            ),
            (
                "energy.network_pj",
                self.energy.network_pj,
                other.energy.network_pj,
            ),
            (
                "energy.memory_pj",
                self.energy.memory_pj,
                other.energy.memory_pj,
            ),
            ("l1_hit_ratio", self.l1_hit_ratio, other.l1_hit_ratio),
        ] {
            if a.to_bits() != b.to_bits() {
                return Some(format!("{name}: {a:?} != {b:?}"));
            }
        }
        None
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<16} {:<12} time={:<12} ops/ms={:<10.1} energy={:.1}uJ inter-unit={:.0}KB sync-msgs={}",
            self.workload,
            self.mechanism,
            self.sim_time.to_string(),
            self.ops_per_ms(),
            self.energy.total_uj(),
            self.traffic.inter_unit_bytes as f64 / 1024.0,
            self.sync.local_messages + self.sync.global_messages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time_ns: u64, ops: u64) -> RunReport {
        RunReport {
            workload: "test".into(),
            mechanism: "SynCron".into(),
            sim_time: Time::from_ns(time_ns),
            completed: true,
            total_ops: ops,
            instructions: 0,
            loads: 0,
            stores: 0,
            sync_requests: 0,
            energy: EnergyTally {
                cache_pj: 10.0,
                network_pj: 20.0,
                memory_pj: 70.0,
            },
            traffic: TrafficStats {
                intra_unit_bytes: 1000,
                inter_unit_bytes: 500,
                intra_unit_msgs: 10,
                inter_unit_msgs: 5,
            },
            sync: SyncMechanismStats::default(),
            dram_accesses: 0,
            l1_hit_ratio: 0.5,
            latency: None,
            incomplete: None,
            faults: None,
            perf: SimPerf::default(),
        }
    }

    #[test]
    fn throughput_units() {
        let r = report(1_000_000, 500); // 1 ms, 500 ops
        assert!((r.ops_per_ms() - 500.0).abs() < 1e-9);
        assert!((r.ops_per_us() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn speedup_and_slowdown_are_reciprocal() {
        let fast = report(1_000, 100);
        let slow = report(2_000, 100);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-9);
        assert!((slow.slowdown_over(&fast) - 2.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn energy_and_data_ratios() {
        let a = report(1_000, 100);
        let mut b = report(1_000, 100);
        b.energy.memory_pj = 170.0;
        b.traffic.inter_unit_bytes = 2000;
        assert!((b.energy_ratio_over(&a) - 2.0).abs() < 1e-9);
        assert!((b.data_movement_ratio_over(&a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn perf_throughput_and_zero_wall_time() {
        let perf = SimPerf {
            wall_seconds: 0.5,
            events_delivered: 1_000_000,
            shards: 1,
        };
        assert!((perf.events_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert_eq!(SimPerf::default().events_per_sec(), 0.0);
    }

    #[test]
    fn same_simulation_ignores_perf_but_not_results() {
        let a = report(1_000, 100);
        let mut b = a.clone();
        // Host-side counters differ between any two runs; they must not count.
        b.perf = SimPerf {
            wall_seconds: 3.5,
            events_delivered: 42,
            shards: 8,
        };
        assert!(a.same_simulation(&b));
        assert_eq!(a.divergence_from(&b), None);
        // Any simulated field difference is named.
        b.loads = 1;
        assert!(!a.same_simulation(&b));
        assert!(a.divergence_from(&b).unwrap().contains("loads"));
        let mut c = a.clone();
        c.energy.network_pj += 0.25;
        assert!(a.divergence_from(&c).unwrap().contains("energy.network_pj"));
    }

    #[test]
    fn latency_report_summarizes_histogram() {
        let mut hist = LogHistogram::new();
        assert!(LatencyReport::from_histogram(&hist).is_none());
        for v in 1..=1000u64 {
            hist.record(v);
        }
        let lat = LatencyReport::from_histogram(&hist).unwrap();
        assert_eq!(lat.ops, 1000);
        assert_eq!(lat.max_ns, 1000);
        assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
        assert!((lat.mean_ns - 500.5).abs() < 1e-9);
    }

    #[test]
    fn divergence_covers_latency() {
        let mut a = report(1_000, 100);
        let b = a.clone();
        assert!(a.same_simulation(&b));
        let lat = LatencyReport {
            ops: 10,
            mean_ns: 5.0,
            p50_ns: 4.0,
            p99_ns: 9.0,
            p999_ns: 9.9,
            max_ns: 10,
        };
        a.latency = Some(lat);
        // Open-loop vs closed-loop is a divergence.
        assert!(a.divergence_from(&b).unwrap().contains("latency"));
        let mut c = a.clone();
        c.latency = Some(LatencyReport {
            p99_ns: 9.000000001,
            ..lat
        });
        // Bit-for-bit comparison of the quantiles.
        assert!(a.divergence_from(&c).unwrap().contains("latency.p99_ns"));
        c.latency = Some(lat);
        assert!(a.same_simulation(&c));
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = report(1_000_000, 500).summary();
        assert!(s.contains("SynCron"));
        assert!(s.contains("ops/ms"));
    }

    #[test]
    fn divergence_covers_incomplete_reason_and_fault_counters() {
        let a = report(1_000, 100);
        let mut b = a.clone();
        b.completed = false;
        b.incomplete = Some(IncompleteReason::EventBudget);
        // completed differs first; with completed equal, the typed reason
        // itself is compared.
        let mut c = a.clone();
        c.incomplete = Some(IncompleteReason::Stalled(StallReport {
            kind: StallKind::EmptyFrontier,
            blocked: vec![BlockedCore {
                unit: 0,
                core: 3,
                addr: 0x40,
            }],
            blocked_total: 1,
            unfinished: 1,
        }));
        assert!(a.divergence_from(&c).unwrap().contains("incomplete"));

        // Faults: None == Some(all-zero) (knob aliveness), any counter differs.
        let mut d = a.clone();
        d.faults = Some(FaultStats::default());
        assert!(a.same_simulation(&d));
        d.faults = Some(FaultStats {
            dropped: 2,
            retransmitted: 2,
            ..FaultStats::default()
        });
        assert!(a.divergence_from(&d).unwrap().contains("faults"));
    }

    #[test]
    fn incomplete_reason_labels_are_compact() {
        assert_eq!(IncompleteReason::EventBudget.label(), "event-budget");
        assert_eq!(
            IncompleteReason::Panicked("boom".into()).label(),
            "panicked"
        );
        let stall = |kind| {
            IncompleteReason::Stalled(StallReport {
                kind,
                blocked: Vec::new(),
                blocked_total: 0,
                unfinished: 2,
            })
        };
        assert_eq!(stall(StallKind::EmptyFrontier).label(), "stalled-deadlock");
        assert_eq!(stall(StallKind::NoProgress).label(), "stalled-no-progress");
    }

    #[test]
    fn failed_reports_are_incomplete_and_zeroed() {
        let r = RunReport::failed("wl", "SynCron", IncompleteReason::Panicked("boom".into()));
        assert!(!r.completed);
        assert_eq!(r.total_ops, 0);
        assert_eq!(
            r.incomplete,
            Some(IncompleteReason::Panicked("boom".into()))
        );
    }
}
