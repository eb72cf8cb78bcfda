//! The benchmark's workloads, each generated from the seed as one TOML sweep
//! document (a `[[sweep]]` array; every entry goes through
//! `Sweep::scenarios_from_value`).
//!
//! Every document uses the simulator's default knobs. None of them sets
//! `scheduler`, `inline_step_budget`, `md1_model`, `message_batching`,
//! `burst_resume` or `column_batching`, so those knobs can be removed without
//! editing the benchmark.

use std::fmt::Write as _;

/// Seed the correctness digests in `golden/` are pinned for.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for claims.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Keys no benchmark document may set.
pub const FORBIDDEN_KNOBS: [&str; 6] = [
    "scheduler",
    "inline_step_budget",
    "md1_model",
    "message_batching",
    "burst_resume",
    "column_batching",
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Contended barrier and lock micro on 4096-core machines.
    Scaleout,
    /// Graph, time-series and data-structure applications on Table 5's machine.
    PaperApps,
    /// Open-loop services plus a fault-injection slice.
    ServiceTail,
    /// `Scaleout`'s shardable scenarios on two simulation threads.
    Scaleout2Shard,
}

/// How large a document to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured instance.
    Full,
    /// A small instance with the same shape, for the self-test.
    Tiny,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Scaleout,
        Workload::PaperApps,
        Workload::ServiceTail,
        Workload::Scaleout2Shard,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scaleout => "scaleout",
            Workload::PaperApps => "paper-apps",
            Workload::ServiceTail => "service-tail",
            Workload::Scaleout2Shard => "scaleout-2shard",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep document for `seed`.
    pub fn document(self, seed: u64, size: Size) -> String {
        let sim_seed = sim_seed(seed);
        let tiny = size == Size::Tiny;
        let mut doc = String::new();
        match self {
            Workload::Scaleout | Workload::Scaleout2Shard => {
                let (mechanisms, extra) = if self == Workload::Scaleout {
                    (COMPARED, "")
                } else {
                    // Ideal falls back to one shard; only the kinds that shard run.
                    (r#"["Central", "Hier", "SynCron"]"#, "sim_threads = 2\n")
                };
                let geometries: &[(usize, usize)] = if tiny {
                    &[(4, 16), (8, 8)]
                } else {
                    &[(16, 256), (64, 64)]
                };
                let iterations = if tiny { 2 } else { 4 };
                for &(units, cores) in geometries {
                    sweep(
                        &mut doc,
                        &format!("{}-{units}x{cores}", self.name()),
                        &format!(
                            "units = {units}\ncores_per_unit = {cores}\nmechanism = {mechanisms}\n\
                             max_events = 40_000_000\n{extra}"
                        ),
                        sim_seed,
                    );
                    workload(
                        &mut doc,
                        &format!(
                            "kind = \"micro\"\nprimitive = \"barrier\"\ninterval = 100\niterations = {iterations}"
                        ),
                    );
                    workload(
                        &mut doc,
                        &format!(
                            "kind = \"micro\"\nprimitive = \"lock\"\ninterval = 200\niterations = {iterations}"
                        ),
                    );
                }
            }
            Workload::PaperApps => {
                // Table 5's machine: 4 units of 16 cores.
                let (units, cores, diagonals, ops) =
                    if tiny { (2, 4, 1, 4) } else { (4, 16, 2, 16) };
                let machine = format!("units = {units}\ncores_per_unit = {cores}\n");
                for (label, config) in [
                    ("paper-apps", format!("{machine}mechanism = {COMPARED}\n")),
                    (
                        "paper-apps-st8",
                        format!("{machine}mechanism = \"SynCron\"\nst_entries = 8\n"),
                    ),
                ] {
                    sweep(&mut doc, label, &config, sim_seed);
                    for algo in ["cc", "pr"] {
                        workload(
                            &mut doc,
                            &format!("kind = \"graph\"\nalgo = \"{algo}\"\ninput = \"wk\""),
                        );
                    }
                    for input in ["air", "pow"] {
                        workload(
                            &mut doc,
                            &format!(
                                "kind = \"time-series\"\ninput = \"{input}\"\ndiagonals_per_core = {diagonals}"
                            ),
                        );
                    }
                    for name in ["stack", "hash-table"] {
                        workload(
                            &mut doc,
                            &format!(
                                "kind = \"data-structure\"\nname = \"{name}\"\nops_per_core = {ops}"
                            ),
                        );
                    }
                }
            }
            Workload::ServiceTail => {
                let (units, requests, iterations) = if tiny { (2, 4, 4) } else { (4, 24, 12) };
                // Rates below and past the knee of every compared scheme
                // (Poisson knees 1-4 req/us/core, MMPP knees 0.5-1 on 4x8).
                sweep(
                    &mut doc,
                    "service-tail",
                    &format!(
                        "units = {units}\ncores_per_unit = 8\nmechanism = [\"Central\", \"SynCron\"]\n"
                    ),
                    sim_seed,
                );
                for (shapes, keys) in [
                    (r#"["kv", "steal", "epoch"]"#, 1_000_000),
                    (r#""kv-fine""#, 4_096),
                ] {
                    workload(
                        &mut doc,
                        &format!(
                            "kind = \"service\"\nshape = {shapes}\narrival = [\"poisson\", \"mmpp\"]\n\
                             rate_per_us = [0.1, 2.0]\nkeys = {keys}\nzipf_s = 0.99\nrequests = {requests}"
                        ),
                    );
                }
                sweep(
                    &mut doc,
                    "service-tail-faults",
                    &format!(
                        "units = {units}\ncores_per_unit = 4\nmechanism = {COMPARED}\n\
                         fault_injection = true\nfault_drop = 0.02\nfault_dup = 0.05\nfault_jitter_ns = 30\n"
                    ),
                    sim_seed,
                );
                workload(
                    &mut doc,
                    &format!(
                        "kind = \"micro\"\nprimitive = \"lock\"\ninterval = 100\niterations = {iterations}"
                    ),
                );
            }
        }
        doc
    }
}

const COMPARED: &str = r#"["Central", "Hier", "SynCron", "Ideal"]"#;

/// Appends a `[[sweep]]` entry with its config table.
fn sweep(doc: &mut String, label: &str, config: &str, sim_seed: u64) {
    let _ = write!(
        doc,
        "[[sweep]]\nlabel = \"{label}\"\n\n[sweep.config]\n{config}seed = {sim_seed}\n\n"
    );
}

/// Appends one `[[sweep.workload]]` entry to the last sweep.
fn workload(doc: &mut String, body: &str) {
    let _ = write!(doc, "[[sweep.workload]]\n{body}\n\n");
}

/// Spreads the command-line seed over the simulator's 63-bit seed space
/// (splitmix64), so neighbouring seeds give unrelated inputs.
fn sim_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 1
}
