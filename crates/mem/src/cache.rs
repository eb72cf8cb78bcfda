//! Private per-core L1 cache model and software-assisted coherence policy.
//!
//! Table 5 of the paper configures each NDP core with a private 16 KB, 2-way,
//! 64 B-line L1 data cache with a 4-cycle hit latency and 23/47 pJ per hit/miss.
//! The baseline NDP system has no hardware coherence: the programmer (or OS) marks
//! data as thread-private, shared read-only, or shared read-write, and shared
//! read-write data is never cached ([`DataClass`]).

use syncron_sim::stats::Counter;
use syncron_sim::time::{Freq, Time};
use syncron_sim::Addr;

/// Software-assisted coherence data classification (Section 2.1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DataClass {
    /// Thread-private data; cacheable in the owning core's L1.
    #[default]
    Private,
    /// Shared data that is only read during parallel execution; cacheable everywhere.
    SharedReadOnly,
    /// Shared read-write data; **uncacheable** under software-assisted coherence, every
    /// access goes to memory.
    SharedReadWrite,
}

impl DataClass {
    /// Whether this class of data may live in a private L1 cache.
    pub fn cacheable(self) -> bool {
        !matches!(self, DataClass::SharedReadWrite)
    }
}

/// Configuration of an L1 cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Latency of a hit.
    pub hit_latency: Time,
    /// Energy of a hit, in picojoules.
    pub hit_pj: f64,
    /// Energy of a miss (tag probe + fill), in picojoules.
    pub miss_pj: f64,
}

impl CacheConfig {
    /// The NDP-core L1 configuration from Table 5: 16 KB, 2-way, 64 B lines, 4-cycle
    /// hit at 2.5 GHz, 23/47 pJ per hit/miss.
    pub fn ndp_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: Freq::ghz(2.5).cycles_to_ps(4),
            hit_pj: 23.0,
            miss_pj: 47.0,
        }
    }

    /// A larger L1 configuration used for the CPU-socket baseline of Table 1
    /// (32 KB, 8-way, typical server L1).
    pub fn cpu_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency: Freq::ghz(2.5).cycles_to_ps(4),
            hit_pj: 30.0,
            miss_pj: 60.0,
        }
    }

    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another line).
    Miss,
}

impl CacheOutcome {
    /// Returns `true` for [`CacheOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Counters maintained by an [`L1Cache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Number of hits.
    pub hits: Counter,
    /// Number of misses.
    pub misses: Counter,
    /// Number of evictions caused by fills.
    pub evictions: Counter,
    /// Number of lines invalidated externally.
    pub invalidations: Counter,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Hit ratio in `[0, 1]`, or 0 if no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative, write-allocate, LRU L1 cache model.
///
/// The model tracks presence only (tags), not data contents: functional data lives in
/// the workload structures, the cache decides hit/miss latency and energy.
///
/// The tag store is one `sets × ways` block allocated by the first access. A cache
/// that is never accessed — every core of a synchronization-only machine — costs no
/// heap allocation to build or to drop, which matters at thousands of cores.
///
/// # Example
///
/// ```
/// use syncron_mem::cache::{CacheConfig, L1Cache};
/// use syncron_sim::Addr;
///
/// let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
/// assert!(!l1.is_allocated());
/// assert!(!l1.access(Addr(0x100), false).is_hit());
/// assert!(l1.is_allocated());
/// assert!(l1.access(Addr(0x104), true).is_hit()); // same 64-byte line
/// ```
#[derive(Clone, Debug)]
pub struct L1Cache {
    config: CacheConfig,
    /// Number of sets (`config.sets()`, kept off the access path).
    sets: usize,
    /// Set `s` occupies `ways[s * config.ways..(s + 1) * config.ways]`; empty until
    /// the first access.
    ways: Vec<Way>,
    stats: CacheStats,
    tick: u64,
}

impl L1Cache {
    /// Creates an empty cache. Nothing is allocated until the first access.
    pub fn new(config: CacheConfig) -> Self {
        L1Cache {
            config,
            sets: config.sets(),
            ways: Vec::new(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// Whether the tag store has been allocated, i.e. the cache was ever accessed.
    pub fn is_allocated(&self) -> bool {
        !self.ways.is_empty()
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Latency of a hit.
    pub fn hit_latency(&self) -> Time {
        self.config.hit_latency
    }

    /// The tag-store index of the first way of `addr`'s set, and the line's tag.
    fn set_base_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr.value() / self.config.line_bytes as u64;
        let set = (line as usize) % self.sets;
        let tag = line / self.sets as u64;
        (set * self.config.ways, tag)
    }

    /// Allocates the (all-invalid) tag store. Out of line: inlined, it slowed
    /// the hit path by about 5%.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self) {
        self.ways = vec![Way::default(); self.sets * self.config.ways];
    }

    /// The tag-store index of the valid way holding `addr`'s line, if any.
    fn find(&self, addr: Addr) -> Option<usize> {
        let (base, tag) = self.set_base_and_tag(addr);
        self.ways
            .get(base..base + self.config.ways)?
            .iter()
            .position(|w| w.valid && w.tag == tag)
            .map(|i| base + i)
    }

    /// Performs an access (the `write` flag only affects statistics; the model is
    /// write-allocate so reads and writes fill identically). Returns hit or miss;
    /// a miss fills the line, evicting the LRU way if necessary.
    pub fn access(&mut self, addr: Addr, _write: bool) -> CacheOutcome {
        self.tick += 1;
        if self.ways.is_empty() {
            self.allocate();
        }
        let (base, tag) = self.set_base_and_tag(addr);
        let set = &mut self.ways[base..base + self.config.ways];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            self.stats.hits.inc();
            return CacheOutcome::Hit;
        }
        self.stats.misses.inc();
        // Fill: choose an invalid way, else the LRU way.
        let victim = if let Some(idx) = set.iter().position(|w| !w.valid) {
            idx
        } else {
            self.stats.evictions.inc();
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        set[victim] = Way {
            tag,
            valid: true,
            lru: self.tick,
        };
        CacheOutcome::Miss
    }

    /// Probes for a line without updating LRU state or statistics.
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Invalidates a line if present; returns whether it was present.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let Some(i) = self.find(addr) else {
            return false;
        };
        self.ways[i].valid = false;
        self.stats.invalidations.inc();
        true
    }

    /// Invalidates the entire cache (used when a kernel is offloaded and the core's
    /// cached thread-private data becomes stale).
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            way.valid = false;
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Total cache energy in picojoules (hits × hit energy + misses × miss energy).
    pub fn energy_pj(&self) -> f64 {
        self.stats.hits.get() as f64 * self.config.hit_pj
            + self.stats.misses.get() as f64 * self.config.miss_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_class_cacheability_matches_paper() {
        assert!(DataClass::Private.cacheable());
        assert!(DataClass::SharedReadOnly.cacheable());
        assert!(!DataClass::SharedReadWrite.cacheable());
    }

    #[test]
    fn ndp_l1_matches_table5() {
        let cfg = CacheConfig::ndp_l1();
        assert_eq!(cfg.size_bytes, 16 * 1024);
        assert_eq!(cfg.ways, 2);
        assert_eq!(cfg.line_bytes, 64);
        assert_eq!(cfg.hit_latency, Time::from_ps(1600)); // 4 cycles @ 2.5 GHz
        assert_eq!(cfg.hit_pj, 23.0);
        assert_eq!(cfg.miss_pj, 47.0);
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn same_line_hits_after_fill() {
        let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
        assert_eq!(l1.access(Addr(0x1000), false), CacheOutcome::Miss);
        assert_eq!(l1.access(Addr(0x103F), true), CacheOutcome::Hit);
        assert_eq!(l1.access(Addr(0x1040), false), CacheOutcome::Miss);
        assert_eq!(l1.stats().hits.get(), 1);
        assert_eq!(l1.stats().misses.get(), 2);
        assert!(l1.stats().hit_ratio() > 0.3);
    }

    #[test]
    fn lru_eviction_within_set() {
        let cfg = CacheConfig::ndp_l1();
        let mut l1 = L1Cache::new(cfg);
        let sets = cfg.sets() as u64;
        let line = |i: u64| Addr(i * sets * 64); // all map to set 0
        assert_eq!(l1.access(line(0), false), CacheOutcome::Miss);
        assert_eq!(l1.access(line(1), false), CacheOutcome::Miss);
        // Touch line 0 so line 1 becomes LRU.
        assert_eq!(l1.access(line(0), false), CacheOutcome::Hit);
        // Fill a third line: must evict line 1.
        assert_eq!(l1.access(line(2), false), CacheOutcome::Miss);
        assert!(l1.contains(line(0)));
        assert!(!l1.contains(line(1)));
        assert!(l1.contains(line(2)));
        assert_eq!(l1.stats().evictions.get(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
        l1.access(Addr(0), false);
        l1.access(Addr(4096), false);
        assert!(l1.invalidate(Addr(0)));
        assert!(!l1.invalidate(Addr(0)));
        assert!(!l1.contains(Addr(0)));
        assert!(l1.contains(Addr(4096)));
        l1.flush();
        assert!(!l1.contains(Addr(4096)));
        assert_eq!(l1.stats().invalidations.get(), 1);
    }

    #[test]
    fn tag_store_is_allocated_by_the_first_access() {
        let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
        // Probes, invalidations and flushes of an untouched cache allocate nothing.
        assert!(!l1.contains(Addr(0x40)));
        assert!(!l1.invalidate(Addr(0x40)));
        l1.flush();
        assert!(!l1.is_allocated());
        assert_eq!(l1.stats().accesses(), 0);
        assert_eq!(l1.energy_pj(), 0.0);
        assert_eq!(l1.access(Addr(0x40), true), CacheOutcome::Miss);
        assert!(l1.is_allocated());
        // A flush invalidates the lines but keeps the block for the next fill.
        l1.flush();
        assert!(l1.is_allocated());
        assert!(!l1.contains(Addr(0x40)));
    }

    #[test]
    fn energy_accumulates() {
        let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
        l1.access(Addr(0), false); // miss: 47 pJ
        l1.access(Addr(0), false); // hit: 23 pJ
        assert!((l1.energy_pj() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig::ndp_l1();
        let mut l1 = L1Cache::new(cfg);
        let lines = (cfg.size_bytes / cfg.line_bytes) as u64 * 4;
        for round in 0..2 {
            for i in 0..lines {
                let outcome = l1.access(Addr(i * 64), false);
                if round == 0 {
                    assert_eq!(outcome, CacheOutcome::Miss);
                }
            }
        }
        // Working set 4x the capacity with LRU: second round also misses everywhere.
        assert_eq!(l1.stats().hits.get(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    // Deterministic stand-ins for proptest properties (no crates.io access): many
    // randomized access streams driven by the in-tree RNG.

    /// The most recently accessed line is always present afterwards, hit/miss
    /// bookkeeping matches the number of accesses, and the number of distinct
    /// resident lines never exceeds the cache capacity.
    #[test]
    fn capacity_respected() {
        for case in 0..32u64 {
            let mut rng = SimRng::seed_from(0x0CAC_4E00 + case);
            let count = 1 + rng.gen_range(499) as usize;
            let addrs: Vec<u64> = (0..count).map(|_| rng.gen_range(1 << 16)).collect();
            let cfg = CacheConfig::ndp_l1();
            let mut l1 = L1Cache::new(cfg);
            for &a in &addrs {
                l1.access(Addr(a), false);
                assert!(l1.contains(Addr(a)));
            }
            let mut distinct: Vec<u64> = addrs.iter().map(|a| Addr(*a).line_index()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let resident = distinct
                .iter()
                .filter(|&&line| l1.contains(Addr(line * 64)))
                .count();
            assert!(resident <= cfg.sets() * cfg.ways);
            assert_eq!(l1.stats().accesses(), addrs.len() as u64);
        }
    }

    /// Reference model: the plainest layout, one eagerly allocated vector per set.
    struct NestedL1 {
        line_bytes: u64,
        /// `(tag, valid, lru)` per way.
        sets: Vec<Vec<(u64, bool, u64)>>,
        tick: u64,
        stats: [u64; 4],
    }

    impl NestedL1 {
        fn new(cfg: CacheConfig) -> Self {
            NestedL1 {
                line_bytes: cfg.line_bytes as u64,
                sets: vec![vec![(0, false, 0); cfg.ways]; cfg.sets()],
                tick: 0,
                stats: [0; 4],
            }
        }

        fn set_and_tag(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.line_bytes;
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let (s, tag) = self.set_and_tag(addr);
            let set = &mut self.sets[s];
            if let Some(way) = set.iter_mut().find(|w| w.1 && w.0 == tag) {
                way.2 = self.tick;
                self.stats[0] += 1;
                return true;
            }
            self.stats[1] += 1;
            let victim = set.iter().position(|w| !w.1).unwrap_or_else(|| {
                self.stats[2] += 1;
                let lru = set.iter().map(|w| w.2).min().unwrap();
                set.iter().position(|w| w.2 == lru).unwrap()
            });
            set[victim] = (tag, true, self.tick);
            false
        }

        fn contains(&self, addr: u64) -> bool {
            let (s, tag) = self.set_and_tag(addr);
            self.sets[s].iter().any(|w| w.1 && w.0 == tag)
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            let (s, tag) = self.set_and_tag(addr);
            match self.sets[s].iter_mut().find(|w| w.1 && w.0 == tag) {
                Some(way) => {
                    way.1 = false;
                    self.stats[3] += 1;
                    true
                }
                None => false,
            }
        }

        fn flush(&mut self) {
            self.sets.iter_mut().flatten().for_each(|w| w.1 = false);
        }
    }

    /// The flat, first-touch tag store answers every access, probe,
    /// invalidation and flush exactly as the eagerly allocated per-set layout
    /// does, and keeps the same statistics — on Table 5's L1, the CPU L1 and a
    /// single-set (fully associative) cache that evicts constantly.
    #[test]
    fn matches_the_per_set_reference_layout() {
        let tiny = CacheConfig {
            size_bytes: 256,
            ways: 4,
            ..CacheConfig::ndp_l1()
        };
        for (c, cfg) in [CacheConfig::ndp_l1(), CacheConfig::cpu_l1(), tiny]
            .into_iter()
            .enumerate()
        {
            for case in 0..16u64 {
                let mut rng = SimRng::seed_from(0x0F1A_7000 + 100 * c as u64 + case);
                let span = 64 * (1 + rng.gen_range(4 * (cfg.size_bytes as u64 / 64)));
                let mut flat = L1Cache::new(cfg);
                let mut nested = NestedL1::new(cfg);
                for step in 0..2_000 {
                    let addr = rng.gen_range(span);
                    let what = rng.gen_range(100);
                    let (got, want) = if what < 80 {
                        (
                            flat.access(Addr(addr), what.is_multiple_of(2)).is_hit(),
                            nested.access(addr),
                        )
                    } else if what < 90 {
                        (flat.contains(Addr(addr)), nested.contains(addr))
                    } else if what < 99 {
                        (flat.invalidate(Addr(addr)), nested.invalidate(addr))
                    } else {
                        flat.flush();
                        nested.flush();
                        (true, true)
                    };
                    assert_eq!(
                        got, want,
                        "config {c}, case {case}, step {step}, addr {addr:#x}"
                    );
                }
                let s = flat.stats();
                assert_eq!(
                    [
                        s.hits.get(),
                        s.misses.get(),
                        s.evictions.get(),
                        s.invalidations.get()
                    ],
                    nested.stats,
                    "config {c}, case {case}"
                );
            }
        }
    }

    /// Repeatedly accessing a working set that fits in one way of every set always
    /// hits after the first pass.
    #[test]
    fn small_working_set_always_hits() {
        for seed in (0u64..1000).step_by(37) {
            let cfg = CacheConfig::ndp_l1();
            let mut l1 = L1Cache::new(cfg);
            let lines = (cfg.sets() / 2) as u64;
            let base = seed * 64;
            for i in 0..lines {
                l1.access(Addr(base + i * 64), false);
            }
            for i in 0..lines {
                assert!(l1.access(Addr(base + i * 64), false).is_hit());
            }
        }
    }
}
