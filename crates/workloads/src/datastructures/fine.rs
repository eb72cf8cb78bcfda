//! Fine-grained-lock data structures: skip list, hash table, linked list, BSTs.
//!
//! These benchmarks spread their locks over many nodes or buckets. The skip list and
//! hash table exhibit *medium* contention (different cores usually work on different
//! parts of the structure); the linked list and the fine-grained external BST exhibit
//! *low contention but high synchronization demand* (several lock acquisitions per
//! operation — these are the two structures whose Synchronization Tables overflow in
//! Section 6.7.3); the Drachsler BST performs almost no lock operations at all.

use std::collections::VecDeque;

use crate::datastructures::{DsConfig, NodePool};
use crate::script::{build, OpGenerator, Refill, ScriptProgram};
use syncron_sim::rng::SimRng;
use syncron_sim::GlobalCoreId;
use syncron_system::address::AddressSpace;
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

fn log2_ceil(n: usize) -> u32 {
    (usize::BITS - n.max(2).next_power_of_two().leading_zeros()).saturating_sub(1)
}

/// A lock-based skip list; every core performs `ops_per_core` deletions
/// (Table 6: 5 K elements, 100% deletion).
#[derive(Clone, Copy, Debug)]
pub struct SkipList {
    /// Sizing parameters.
    pub config: DsConfig,
}

impl SkipList {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        SkipList { config }
    }
}

struct SkipListGen {
    cfg: DsConfig,
    pool: NodePool,
    levels: u32,
    rng: SimRng,
    remaining: u32,
}

impl OpGenerator for SkipListGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let size = (self.cfg.initial_size as u64).max(2);
        let target = 1 + self.rng.gen_range(size - 1);
        build::compute(script, self.cfg.think_instrs);
        // Search from the top level down: one node read per level.
        for level in (0..self.levels).rev() {
            let stride = 1u64 << level;
            let idx = (target / stride.max(1)) * stride.max(1) % size;
            build::load(script, self.pool.node(idx));
        }
        // Lock the predecessor and the victim (in index order, so concurrent deletions
        // can never deadlock), unlink, release.
        let pred = target - 1;
        build::lock(script, self.pool.lock(pred));
        build::lock(script, self.pool.lock(target));
        build::load(script, self.pool.node(target));
        build::store(script, self.pool.node(pred));
        build::unlock(script, self.pool.lock(target));
        build::unlock(script, self.pool.lock(pred));
        Refill::NewOp
    }
}

impl Workload for SkipList {
    fn name(&self) -> String {
        "skip-list".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let pool = NodePool::allocate(space, self.config.initial_size, true);
        let levels = log2_ceil(self.config.initial_size).min(16);
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(ScriptProgram::new(SkipListGen {
                    cfg: self.config,
                    pool: pool.clone(),
                    levels,
                    rng: SimRng::seed_from(config.seed ^ (i as u64 * 0x9E37)),
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// A hash table with per-bucket locks; every core performs `ops_per_core` lookups
/// (Table 6: 1 K elements, 100% lookup).
#[derive(Clone, Copy, Debug)]
pub struct HashTable {
    /// Sizing parameters.
    pub config: DsConfig,
    /// Number of buckets (each with its own lock).
    pub buckets: usize,
}

impl HashTable {
    /// Creates the benchmark with the default 128 buckets.
    pub fn new(config: DsConfig) -> Self {
        HashTable {
            config,
            buckets: 128,
        }
    }
}

struct HashTableGen {
    cfg: DsConfig,
    buckets: u64,
    chain: u64,
    bucket_locks: NodePool,
    nodes: NodePool,
    rng: SimRng,
    remaining: u32,
}

impl OpGenerator for HashTableGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let key = self.rng.gen_range(self.cfg.initial_size as u64);
        let bucket = key % self.buckets;
        build::compute(script, self.cfg.think_instrs);
        build::lock(script, self.bucket_locks.lock(bucket));
        // Walk the bucket chain.
        for link in 0..self.chain.max(1) {
            build::load(script, self.nodes.node(bucket + link * self.buckets));
        }
        build::unlock(script, self.bucket_locks.lock(bucket));
        Refill::NewOp
    }
}

impl Workload for HashTable {
    fn name(&self) -> String {
        "hash-table".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let bucket_locks = NodePool::allocate(space, self.buckets, true);
        let nodes = NodePool::allocate(space, self.config.initial_size, false);
        let chain = (self.config.initial_size as u64 / self.buckets as u64).max(1);
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(ScriptProgram::new(HashTableGen {
                    cfg: self.config,
                    buckets: self.buckets as u64,
                    chain,
                    bucket_locks: bucket_locks.clone(),
                    nodes: nodes.clone(),
                    rng: SimRng::seed_from(config.seed ^ (i as u64 * 0xA5A5)),
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// A sorted linked list with lazy-style locking: the traversal runs without locks, then
/// the predecessor and current nodes are locked and validated; every core performs
/// `ops_per_core` lookups (Table 6 uses 20 K elements; the default configuration scales
/// the list down so the traversal stays tractable in simulation, see "Synthetic
/// inputs" in `ARCHITECTURE.md`).
#[derive(Clone, Copy, Debug)]
pub struct LinkedList {
    /// Sizing parameters.
    pub config: DsConfig,
}

impl LinkedList {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        LinkedList { config }
    }
}

struct LinkedListGen {
    cfg: DsConfig,
    pool: NodePool,
    rng: SimRng,
    remaining: u32,
}

impl OpGenerator for LinkedListGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let size = self.cfg.initial_size as u64;
        let target = self.rng.gen_range(size).max(1);
        build::compute(script, self.cfg.think_instrs);
        // Unlocked traversal up to the target position.
        for idx in 0..target {
            build::load(script, self.pool.node(idx));
        }
        // Lock predecessor and current, validate, release — two locks held at once,
        // which is what drives the synchronization demand of this benchmark.
        let pred = target - 1;
        build::lock(script, self.pool.lock(pred));
        build::lock(script, self.pool.lock(target));
        build::load(script, self.pool.node(pred));
        build::load(script, self.pool.node(target));
        build::unlock(script, self.pool.lock(target));
        build::unlock(script, self.pool.lock(pred));
        Refill::NewOp
    }
}

impl Workload for LinkedList {
    fn name(&self) -> String {
        "linked-list".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let pool = NodePool::allocate(space, self.config.initial_size, true);
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(ScriptProgram::new(LinkedListGen {
                    cfg: self.config,
                    pool: pool.clone(),
                    rng: SimRng::seed_from(config.seed ^ (i as u64 * 0xBEEF)),
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// An external binary search tree with fine-grained hand-over-hand locking
/// ("BST_FG", Table 6: 20 K elements, 100% lookup). Each traversal step locks the next
/// node before releasing the previous one, so every core holds two locks at any time
/// and performs `O(log n)` acquisitions per lookup — the workload that overflows the
/// Synchronization Table in Figure 23.
#[derive(Clone, Copy, Debug)]
pub struct BstFineGrained {
    /// Sizing parameters.
    pub config: DsConfig,
}

impl BstFineGrained {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        BstFineGrained { config }
    }
}

struct BstFgGen {
    cfg: DsConfig,
    pool: NodePool,
    depth: u32,
    rng: SimRng,
    remaining: u32,
}

impl OpGenerator for BstFgGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let size = (self.cfg.initial_size as u64).max(2);
        let key = self.rng.next_u64();
        build::compute(script, self.cfg.think_instrs);
        // Hand-over-hand descent from the root. Node indices strictly increase along
        // the path (a proper heap-shaped tree), so concurrent lookups acquire locks in
        // a consistent global order and can never deadlock.
        let mut idx = 0u64;
        let mut prev: Option<u64> = None;
        build::lock(script, self.pool.lock(idx));
        build::load(script, self.pool.node(idx));
        for level in 0..self.depth {
            let go_right = (key >> level) & 1 == 1;
            let child = 2 * idx + 1 + u64::from(go_right);
            if child >= size {
                break;
            }
            build::lock(script, self.pool.lock(child));
            build::load(script, self.pool.node(child));
            if let Some(p) = prev {
                build::unlock(script, self.pool.lock(p));
            }
            prev = Some(idx);
            idx = child;
        }
        if let Some(p) = prev {
            build::unlock(script, self.pool.lock(p));
        }
        build::unlock(script, self.pool.lock(idx));
        Refill::NewOp
    }
}

impl Workload for BstFineGrained {
    fn name(&self) -> String {
        "bst-fg".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let pool = NodePool::allocate(space, self.config.initial_size, true);
        let depth = log2_ceil(self.config.initial_size).min(20);
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(ScriptProgram::new(BstFgGen {
                    cfg: self.config,
                    pool: pool.clone(),
                    depth,
                    rng: SimRng::seed_from(config.seed ^ (i as u64 * 0xC0FFEE)),
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// The Drachsler logically-ordered BST ("BST_Drachsler", Table 6: 10 K elements,
/// 100% deletion): lookups traverse without locks and a deletion locks only the victim
/// and its predecessor, so lock requests are a negligible fraction of memory accesses
/// and every synchronization scheme performs the same (Figure 11, last panel).
#[derive(Clone, Copy, Debug)]
pub struct BstDrachsler {
    /// Sizing parameters.
    pub config: DsConfig,
}

impl BstDrachsler {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        BstDrachsler { config }
    }
}

struct BstDrachslerGen {
    cfg: DsConfig,
    pool: NodePool,
    depth: u32,
    rng: SimRng,
    remaining: u32,
}

impl OpGenerator for BstDrachslerGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let size = (self.cfg.initial_size as u64).max(2);
        let key = self.rng.next_u64();
        build::compute(script, self.cfg.think_instrs);
        // Lock-free traversal to the victim.
        let mut idx = 0u64;
        for level in 0..self.depth {
            build::load(script, self.pool.node(idx));
            let go_right = (key >> level) & 1 == 1;
            idx = (2 * idx + 1 + u64::from(go_right)) % size;
        }
        // Deletion locks the victim and its predecessor only, always in index order so
        // concurrent deletions cannot deadlock.
        let other = if idx == 0 { 1 } else { idx - 1 };
        let (lo, hi) = (idx.min(other), idx.max(other));
        build::lock(script, self.pool.lock(lo));
        build::lock(script, self.pool.lock(hi));
        build::store(script, self.pool.node(lo));
        build::store(script, self.pool.node(hi));
        build::unlock(script, self.pool.lock(hi));
        build::unlock(script, self.pool.lock(lo));
        Refill::NewOp
    }
}

impl Workload for BstDrachsler {
    fn name(&self) -> String {
        "bst-drachsler".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let pool = NodePool::allocate(space, self.config.initial_size, true);
        let depth = log2_ceil(self.config.initial_size).min(20);
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(ScriptProgram::new(BstDrachslerGen {
                    cfg: self.config,
                    pool: pool.clone(),
                    depth,
                    rng: SimRng::seed_from(config.seed ^ (i as u64 * 0xD00D)),
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_core::MechanismKind;
    use syncron_system::run_workload;

    fn config(kind: MechanismKind) -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism(kind)
            .build()
            .expect("valid config")
    }

    #[test]
    fn all_fine_grained_structures_complete() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(SkipList::new(DsConfig::new(512, 8))),
            Box::new(HashTable::new(DsConfig::new(512, 8))),
            Box::new(LinkedList::new(DsConfig::new(64, 8))),
            Box::new(BstFineGrained::new(DsConfig::new(512, 8))),
            Box::new(BstDrachsler::new(DsConfig::new(512, 8))),
        ];
        for wl in &workloads {
            let report = run_workload(&config(MechanismKind::SynCron), wl.as_ref());
            assert!(report.completed, "{} did not complete", wl.name());
            assert_eq!(report.total_ops, 6 * 8, "{}", wl.name());
        }
    }

    #[test]
    fn bst_fg_has_high_lock_demand() {
        // O(log n) lock acquisitions per lookup vs 2 for the Drachsler BST.
        let fg = run_workload(
            &config(MechanismKind::SynCron),
            &BstFineGrained::new(DsConfig::new(4096, 10)),
        );
        let dr = run_workload(
            &config(MechanismKind::SynCron),
            &BstDrachsler::new(DsConfig::new(4096, 10)),
        );
        assert!(fg.sync_requests > 3 * dr.sync_requests);
    }

    #[test]
    fn bst_drachsler_is_insensitive_to_the_mechanism() {
        // Lock requests are a tiny fraction of all accesses, so Central and SynCron
        // should be within a few percent of each other (Figure 11, last panel).
        let wl = BstDrachsler::new(DsConfig::new(2048, 15));
        let central = run_workload(&config(MechanismKind::Central), &wl);
        let syncron = run_workload(&config(MechanismKind::SynCron), &wl);
        let ratio = syncron.speedup_over(&central);
        assert!(
            (0.9..1.6).contains(&ratio),
            "BST_Drachsler should be mechanism-insensitive, got speedup {ratio:.2}"
        );
    }

    #[test]
    fn hash_table_spreads_contention_over_buckets() {
        let report = run_workload(
            &config(MechanismKind::SynCron),
            &HashTable::new(DsConfig::new(512, 20)),
        );
        assert!(report.completed);
        // Many distinct lock variables are touched → ST holds several entries.
        assert!(report.sync.st_max_occupancy > 0.01);
    }

    #[test]
    fn deterministic_given_seed() {
        let wl = SkipList::new(DsConfig::new(512, 10));
        let a = run_workload(&config(MechanismKind::SynCron), &wl);
        let b = run_workload(&config(MechanismKind::SynCron), &wl);
        assert_eq!(a.sim_time, b.sim_time);
    }
}
