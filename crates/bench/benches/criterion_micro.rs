//! Micro-benchmarks of the simulator's hot kernels.
//!
//! These do not correspond to a paper figure; they keep the substrate honest (event
//! queue, Synchronization Table, L1 cache, DRAM timing, crossbar, MESI directory) so
//! that regressions in the simulator itself are caught by `cargo bench`.
//!
//! The build environment has no access to crates.io, so instead of criterion this
//! target ships a small std-only timing loop: each kernel is warmed up and then run for
//! a fixed number of batches, reporting ns/iteration (median of batches).

use std::hint::black_box;
use std::time::Instant;

use syncron_core::request::PrimitiveKind;
use syncron_core::table::SynchronizationTable;
use syncron_mem::cache::{CacheConfig, L1Cache};
use syncron_mem::dram::{DramModel, DramSpec};
use syncron_mem::mesi::{CoherentAccess, MesiDirectory, MesiParams};
use syncron_net::crossbar::{Crossbar, CrossbarConfig};
use syncron_sim::event::EventQueue;
use syncron_sim::queueing::{md1_wait, Md1Table};
use syncron_sim::rng::SimRng;
use syncron_sim::{Addr, GlobalCoreId, Time, UnitId};

/// Times `iters_per_batch` iterations of `f` over `batches` batches and prints the
/// median ns/iteration.
fn bench(name: &str, iters_per_batch: u64, mut f: impl FnMut()) {
    const BATCHES: usize = 15;
    // Warm-up.
    for _ in 0..iters_per_batch.min(1_000) {
        f();
    }
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters_per_batch {
            f();
        }
        per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters_per_batch as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    println!("{:<32} {:>10.1} ns/iter", name, per_iter_ns[BATCHES / 2]);
}

fn bench_event_queue() {
    bench("event_queue_push_pop_1k", 200, || {
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1024u64 {
            q.push(Time::from_ps((i * 7919) % 4096), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum = sum.wrapping_add(e);
        }
        black_box(sum);
    });

    // Steady-state churn at machine-like occupancy: ~4k live events (one per
    // core of a 16x256 machine), each pop rescheduling its successor a short,
    // mixed latency ahead — the pattern the run loop actually generates.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(0xC0FFEE);
    let mut now = Time::ZERO;
    for i in 0..4096u64 {
        q.push(Time::from_ps(rng.gen_range(40_000)), i);
    }
    bench("event_queue_churn_4k", 500_000, || {
        let (t, e) = q.pop().expect("queue stays occupied");
        now = now.max(t);
        // Latency mix: mostly short hops, occasional long DRAM/backoff.
        let lat = if e % 31 == 0 {
            200_000 + rng.gen_range(3_000_000)
        } else {
            400 + rng.gen_range(40_000)
        };
        q.push(now + Time::from_ps(lat), e);
        black_box(e);
    });
}

fn bench_synchronization_table() {
    bench("st_allocate_lookup_release", 2_000, || {
        let mut st = SynchronizationTable::new(64);
        for i in 0..64u64 {
            st.allocate(Time::from_ns(i), Addr(i * 64), PrimitiveKind::Lock);
        }
        for i in 0..64u64 {
            black_box(st.lookup(Addr(i * 64)));
        }
        for i in 0..64u64 {
            st.release(Time::from_ns(100 + i), Addr(i * 64));
        }
        black_box(st.occupied());
    });
}

fn bench_l1_cache() {
    let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
    let mut i = 0u64;
    bench("l1_cache_access_stream", 1_000_000, || {
        i = i.wrapping_add(1);
        black_box(l1.access(Addr((i * 64) % (64 * 1024)), i.is_multiple_of(3)));
    });
    // A working set of one line per set: every access after the first pass hits.
    let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
    let mut j = 0u64;
    bench("l1_cache_hit_stream", 1_000_000, || {
        j = j.wrapping_add(1);
        black_box(l1.access(Addr((j * 64) % (64 * 128)), false));
    });
    // Building and dropping the client L1s of a 16x256 machine that never
    // touches them (the synchronization-only scale-out micro-benchmarks).
    bench("l1_cache_new_drop_x4096", 50, || {
        let l1s: Vec<L1Cache> = (0..4096)
            .map(|_| L1Cache::new(CacheConfig::ndp_l1()))
            .collect();
        black_box(&l1s);
    });
}

fn bench_dram() {
    let mut dram = DramModel::new(DramSpec::hbm());
    let mut i = 0u64;
    bench("dram_hbm_access", 1_000_000, || {
        i = i.wrapping_add(1);
        black_box(dram.access(Time::from_ns(i), Addr(i * 64 * 33), i.is_multiple_of(4)));
    });
}

fn bench_crossbar() {
    let mut xbar = Crossbar::new(CrossbarConfig::default());
    let mut i = 0u64;
    bench("crossbar_transfer_quantized", 1_000_000, || {
        i = i.wrapping_add(1);
        black_box(xbar.transfer(Time::from_ns(i), 64));
    });
}

fn bench_md1() {
    // The isolated queueing-model kernel, outside the crossbar's rate tracker:
    // closed form (ln/exp via powf in the utilization clamp and two divides)
    // vs the quantized table (bit extraction + one fused interpolation). The
    // lambda ramp sweeps the whole utilization range so the table walk touches
    // every bucket, not one hot cache line.
    let service = Time::from_ps(1_600);
    let cap = 0.95;
    let saturation = 1.0 / 1_600.0f64;
    let mut i = 0u64;
    bench("md1_wait_exact", 1_000_000, || {
        i = i.wrapping_add(1);
        let lambda = saturation * ((i % 1024) as f64) / 1024.0;
        black_box(md1_wait(black_box(lambda), service, cap));
    });
    let table = Md1Table::new(service, cap);
    let mut j = 0u64;
    bench("md1_wait_quantized", 1_000_000, || {
        j = j.wrapping_add(1);
        let lambda = saturation * ((j % 1024) as f64) / 1024.0;
        black_box(table.wait(black_box(lambda)));
    });
}

fn bench_mesi() {
    let mut dir = MesiDirectory::new(4, 16, MesiParams::ndp_default());
    let cores: Vec<GlobalCoreId> = (0..8)
        .map(|i| GlobalCoreId::from_flat(i * 7 % 64, 16))
        .collect();
    let mut i = 0usize;
    bench("mesi_directory_rmw_pingpong", 200_000, || {
        i += 1;
        let core = cores[i % cores.len()];
        black_box(dir.access(
            Time::from_ns(i as u64),
            core,
            Addr(0x1000),
            CoherentAccess::Rmw,
            UnitId(0),
        ));
    });
}

fn main() {
    println!("simulator kernel micro-benchmarks (median of 15 batches)");
    bench_event_queue();
    bench_synchronization_table();
    bench_l1_cache();
    bench_dram();
    bench_crossbar();
    bench_md1();
    bench_mesi();
}
