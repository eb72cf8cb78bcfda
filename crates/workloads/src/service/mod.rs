//! Open-loop service workloads: production-shaped traffic for the NDP system.
//!
//! Every other workload in this crate is *closed-loop*: each core issues its next
//! operation as soon as the previous one finishes, so the offered load adapts
//! itself to whatever the synchronization mechanism can sustain and per-operation
//! latency is meaningless. This module family models the opposite regime — an
//! *open-loop* service where requests arrive on their own clock regardless of
//! whether the serving core is ready:
//!
//! * [`arrival`] — deterministic Poisson / bursty-MMPP / diurnal arrival-time
//!   generators, one per core, seeded from the workload seed.
//! * [`zipf`] — an O(1) Zipf-skewed key sampler over key spaces of up to millions
//!   of sync variables.
//! * [`kv`] — a sharded key-value store with per-bucket locks.
//! * [`fine`] — the same store with one lock per key, whose sync-variable
//!   population exceeds the Synchronization Table under Zipf-skewed popularity.
//! * [`deque`] — a work-stealing deque layer with per-queue locks and semaphore
//!   parking.
//! * [`epoch`] — reader-writer epoch reclamation on barriers and condition
//!   variables.
//!
//! Each request's latency is measured from its *scheduled arrival* (not from when
//! the backlogged core got around to it) to completion, so queueing delay counts —
//! this is what makes p99/p999 vs. offered load show a saturation knee. Latencies
//! are recorded per core into a [`LogHistogram`] and merged machine-wide into
//! [`RunReport::latency`](syncron_system::report::RunReport).
//!
//! Determinism: arrival times and key choices are pure functions of
//! `(config.seed, core index, parameters)`; a blocked core simply has its next
//! request wait, generating no extra events, so open-loop runs stay bit-exact
//! across shard counts even past saturation.

pub mod arrival;
pub mod deque;
pub mod epoch;
pub mod fine;
pub mod kv;
pub mod zipf;

pub use arrival::{ArrivalGen, ArrivalProcess};
pub use deque::StealService;
pub use epoch::EpochService;
pub use fine::FineKvService;
pub use kv::KvService;
pub use zipf::ZipfSampler;

use syncron_sim::stats::LogHistogram;
use syncron_sim::time::Time;
use syncron_system::workload::{Action, Workload};

/// The four service shapes built on the open-loop driver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceShape {
    /// Sharded KV store with per-bucket locks ([`KvService`]).
    Kv,
    /// Fine-grained KV store with one lock per key — its sync-variable
    /// population scales with the key space and overflows the ST under
    /// Zipf-skewed traffic ([`FineKvService`]).
    KvFine,
    /// Work-stealing deque with per-queue locks + semaphore parking
    /// ([`StealService`]).
    Steal,
    /// Reader-writer epoch reclamation on barriers/condvars ([`EpochService`]).
    Epoch,
}

impl ServiceShape {
    /// All shapes.
    pub const ALL: [ServiceShape; 4] = [
        ServiceShape::Kv,
        ServiceShape::KvFine,
        ServiceShape::Steal,
        ServiceShape::Epoch,
    ];

    /// Short name used in labels and scenario files.
    pub fn name(self) -> &'static str {
        match self {
            ServiceShape::Kv => "kv",
            ServiceShape::KvFine => "kv-fine",
            ServiceShape::Steal => "steal",
            ServiceShape::Epoch => "epoch",
        }
    }

    /// Parses a shape name.
    pub fn by_name(name: &str) -> Option<ServiceShape> {
        ServiceShape::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Parameters shared by all three service shapes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServiceParams {
    /// Per-core arrival process.
    pub arrival: ArrivalProcess,
    /// Size of the key space requests are drawn from.
    pub keys: u64,
    /// Zipf skew exponent over the key space (0 = uniform).
    pub zipf_s: f64,
    /// Open-loop requests per client core.
    pub requests: u32,
}

/// Builds the service workload for `shape`.
pub fn service_workload(
    shape: ServiceShape,
    params: ServiceParams,
) -> Box<dyn Workload + Send + Sync> {
    match shape {
        ServiceShape::Kv => Box::new(KvService::new(params)),
        ServiceShape::KvFine => Box::new(FineKvService::new(params)),
        ServiceShape::Steal => Box::new(StealService::new(params)),
        ServiceShape::Epoch => Box::new(EpochService::new(params)),
    }
}

/// Label fragment shared by the three shapes' [`Workload::name`] impls.
fn service_name(shape: ServiceShape, params: &ServiceParams) -> String {
    format!(
        "svc-{}.{}.r{}.z{}",
        shape.name(),
        params.arrival.kind_name(),
        params.arrival.rate_per_us(),
        params.zipf_s
    )
}

/// Per-core open-loop request driver shared by the service shapes.
///
/// Owns the core's arrival stream and the latency histogram. A shape's program
/// calls [`admit`](Self::admit) from its dispatch phase: either it gets back an
/// idle-compute action that parks the core until the next scheduled arrival, or
/// the request is admitted (stamped with its *scheduled* arrival time, which may
/// be in the past if the core is backlogged) and the program runs its service
/// phases. When the final action of a request has committed the program calls
/// [`complete`](Self::complete), which records admission→completion latency.
#[derive(Debug)]
struct OpenLoop {
    gen: ArrivalGen,
    next_arrival: Time,
    admitted_at: Option<Time>,
    hist: LogHistogram,
    remaining: u32,
    ops: u64,
    cycle_ps: u64,
}

impl OpenLoop {
    fn new(process: ArrivalProcess, seed: u64, requests: u32, cycle: Time) -> Self {
        let mut gen = ArrivalGen::new(process, seed);
        let next_arrival = gen.next_arrival();
        OpenLoop {
            gen,
            next_arrival,
            admitted_at: None,
            hist: LogHistogram::new(),
            remaining: requests,
            ops: 0,
            cycle_ps: cycle.as_ps().max(1),
        }
    }

    /// True once every request has been admitted and completed.
    fn exhausted(&self) -> bool {
        self.remaining == 0 && self.admitted_at.is_none()
    }

    /// Admits the next request if its arrival time has come. Returns `Some` with
    /// an idle-compute action spanning the gap when the core is ahead of the
    /// arrival stream, `None` when a request was admitted (the caller proceeds to
    /// its service phases).
    fn admit(&mut self, now: Time) -> Option<Action> {
        debug_assert!(self.admitted_at.is_none(), "request already in flight");
        debug_assert!(self.remaining > 0, "no requests left to admit");
        if self.next_arrival > now {
            let gap_ps = self.next_arrival.as_ps() - now.as_ps();
            return Some(Action::Compute {
                instrs: gap_ps.div_ceil(self.cycle_ps).max(1),
            });
        }
        // Admission is the scheduled arrival time, not `now`: a backlogged core's
        // requests have been queueing since their arrival, and that delay is the
        // whole point of the open-loop measurement.
        self.admitted_at = Some(self.next_arrival);
        self.next_arrival = self.gen.next_arrival();
        self.remaining -= 1;
        None
    }

    /// Records the in-flight request's latency (nanoseconds) and retires it.
    fn complete(&mut self, now: Time) {
        let admitted = self.admitted_at.take().expect("no request in flight");
        self.hist
            .record(now.saturating_sub(admitted).as_ps() / 1000);
        self.ops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_core::MechanismKind;
    use syncron_system::config::NdpConfig;
    use syncron_system::run_workload;

    fn config(kind: MechanismKind) -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism(kind)
            .build()
            .expect("valid config")
    }

    fn params(rate_per_us: f64, requests: u32) -> ServiceParams {
        ServiceParams {
            arrival: ArrivalProcess::Poisson { rate_per_us },
            keys: 10_000,
            zipf_s: 0.99,
            requests,
        }
    }

    #[test]
    fn shape_names_round_trip() {
        for shape in ServiceShape::ALL {
            assert_eq!(ServiceShape::by_name(shape.name()), Some(shape));
        }
        assert_eq!(ServiceShape::by_name("nope"), None);
    }

    #[test]
    fn every_shape_completes_under_all_mechanisms() {
        for shape in ServiceShape::ALL {
            for kind in MechanismKind::ALL {
                let wl = service_workload(shape, params(0.05, 12));
                let report = run_workload(&config(kind), wl.as_ref());
                assert!(report.completed, "{shape:?} under {kind:?}");
                assert!(report.total_ops > 0, "{shape:?} under {kind:?}");
                let lat = report
                    .latency
                    .unwrap_or_else(|| panic!("{shape:?} under {kind:?}: no latency report"));
                assert!(lat.ops > 0);
                assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
            }
        }
    }

    #[test]
    fn all_shapes_work_with_bursty_and_diurnal_arrivals() {
        for arrival in [
            ArrivalProcess::Mmpp {
                rate_per_us: 0.05,
                on_us: 20.0,
                off_us: 60.0,
            },
            ArrivalProcess::Diurnal {
                rate_per_us: 0.05,
                amplitude: 0.8,
                period_us: 500.0,
            },
        ] {
            for shape in ServiceShape::ALL {
                let wl = service_workload(
                    shape,
                    ServiceParams {
                        arrival,
                        keys: 1_000,
                        zipf_s: 0.99,
                        requests: 8,
                    },
                );
                let report = run_workload(&config(MechanismKind::SynCron), wl.as_ref());
                assert!(report.completed, "{shape:?} / {}", arrival.kind_name());
                assert!(report.latency.is_some());
            }
        }
    }

    #[test]
    fn same_seed_same_simulation_higher_load_higher_latency() {
        let cfg = config(MechanismKind::SynCron);
        let light = run_workload(&cfg, &KvService::new(params(0.01, 16)));
        let light_again = run_workload(&cfg, &KvService::new(params(0.01, 16)));
        assert!(light.same_simulation(&light_again), "determinism");

        // An offered load far beyond one core's service capacity must show up as
        // queueing delay in the tail.
        let heavy = run_workload(&cfg, &KvService::new(params(5.0, 16)));
        assert!(heavy.completed, "open-loop runs always drain");
        let (l, h) = (light.latency.unwrap(), heavy.latency.unwrap());
        assert!(
            h.p99_ns > l.p99_ns,
            "overload p99 {} should exceed light-load p99 {}",
            h.p99_ns,
            l.p99_ns
        );
    }

    #[test]
    fn open_loop_names_mention_shape_and_rate() {
        let wl = service_workload(ServiceShape::Steal, params(0.25, 4));
        let name = wl.name();
        assert!(name.contains("steal") && name.contains("0.25"), "{name}");
    }

    #[test]
    fn epoch_handles_single_client_units() {
        // 1 client per unit (dedicated server core eats the other): the epoch
        // shape must degrade to lone readers without a reclaimer or condvar.
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(2)
            .mechanism(MechanismKind::SynCron)
            .build()
            .expect("valid config");
        if cfg.clients_per_unit() == 1 {
            let report = run_workload(&cfg, &EpochService::new(params(0.1, 6)));
            assert!(report.completed);
            assert!(report.latency.is_some());
        }
    }
}
