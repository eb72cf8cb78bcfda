//! Simulator-throughput sweeps over geometries from 4×16 up to 16×256: the
//! shard-scaling sweep of the conservative-PDES execution mode (1/2/4/8
//! workers, identical simulations, wall-clock speedup) and the resilience
//! sweep (drop rate × mechanism, recovery overhead and goodput degradation
//! under injected message loss).
//!
//! Prints the tables and writes `BENCH_simcore.json` (override the path with
//! `SYNCRON_BENCH_OUT`), then re-parses and schema-validates the file so a
//! malformed export fails here rather than in a later trajectory job.

use syncron_bench::experiments::simcore;

fn main() {
    let shards = simcore::measure_shards();
    simcore::shard_table(&shards).print();
    let resilience = simcore::measure_resilience();
    simcore::resilience_table(&resilience).print();

    // Default to the repository root (bench targets run with the package as
    // cwd), so the trajectory file lands next to EXPERIMENTS.md.
    let path = std::env::var("SYNCRON_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json").into()
    });
    let doc = simcore::simcore_json(&shards, &resilience);
    std::fs::write(&path, doc.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let parsed =
        syncron_harness::json::parse(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
    simcore::validate_simcore_json(&parsed)
        .unwrap_or_else(|e| panic!("{path} fails schema validation: {e}"));
    eprintln!("wrote {path} (schema {})", simcore::SIMCORE_SCHEMA);
}
