//! Coarse-grained-lock data structures: stack, queue, array map, priority queue.
//!
//! These four benchmarks protect the entire structure (or, for the Michael–Scott
//! queue, each end of it) with a single lock, so all cores contend for one or two
//! synchronization variables — the *high-contention* group of Figure 11.

use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::Mutex;

use crate::datastructures::{DsConfig, NodePool};
use crate::script::{build, OpGenerator, Refill, ScriptProgram};
use syncron_sim::{Addr, GlobalCoreId, UnitId};
use syncron_system::address::AddressSpace;
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

/// A stack protected by one coarse-grained lock; every core performs `ops_per_core`
/// push operations (Table 6: 100 K initial elements, 100% push).
#[derive(Clone, Copy, Debug)]
pub struct Stack {
    /// Sizing parameters.
    pub config: DsConfig,
}

impl Stack {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        Stack { config }
    }
}

#[derive(Debug)]
struct StackShared {
    top: u64,
}

struct StackGen {
    cfg: DsConfig,
    lock: Addr,
    top_addr: Addr,
    pool: NodePool,
    shared: Arc<Mutex<StackShared>>,
    remaining: u32,
}

impl OpGenerator for StackGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let mut shared = self.shared.lock().expect("workload state poisoned");
        shared.top += 1;
        let node = self.pool.node(shared.top);
        build::compute(script, self.cfg.think_instrs);
        build::lock(script, self.lock);
        build::load(script, self.top_addr);
        build::store(script, node);
        build::store(script, self.top_addr);
        build::unlock(script, self.lock);
        Refill::NewOp
    }
}

impl Workload for Stack {
    fn name(&self) -> String {
        "stack".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let lock = space.allocate_shared_rw(64, UnitId(0));
        let top_addr = space.allocate_shared_rw(64, UnitId(0));
        let pool = NodePool::allocate(
            space,
            self.config.initial_size + clients.len() * self.config.ops_per_core as usize,
            false,
        );
        let shared = Arc::new(Mutex::new(StackShared {
            top: self.config.initial_size as u64,
        }));
        clients
            .iter()
            .map(|_| {
                Box::new(ScriptProgram::new(StackGen {
                    cfg: self.config,
                    lock,
                    top_addr,
                    pool: pool.clone(),
                    shared: Arc::clone(&shared),
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// A two-lock Michael–Scott queue; every core performs `ops_per_core` pop operations
/// (Table 6: 100 K initial elements, 100% pop).
#[derive(Clone, Copy, Debug)]
pub struct Queue {
    /// Sizing parameters.
    pub config: DsConfig,
}

impl Queue {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        Queue { config }
    }
}

#[derive(Debug)]
struct QueueShared {
    head: u64,
}

struct QueueGen {
    cfg: DsConfig,
    head_lock: Addr,
    head_addr: Addr,
    pool: NodePool,
    shared: Arc<Mutex<QueueShared>>,
    remaining: u32,
}

impl OpGenerator for QueueGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let mut shared = self.shared.lock().expect("workload state poisoned");
        let node = self.pool.node(shared.head);
        shared.head += 1;
        let next = self.pool.node(shared.head);
        build::compute(script, self.cfg.think_instrs);
        build::lock(script, self.head_lock);
        build::load(script, self.head_addr);
        build::load(script, node);
        build::load(script, next);
        build::store(script, self.head_addr);
        build::unlock(script, self.head_lock);
        Refill::NewOp
    }
}

impl Workload for Queue {
    fn name(&self) -> String {
        "queue".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let head_lock = space.allocate_shared_rw(64, UnitId(0));
        let head_addr = space.allocate_shared_rw(64, UnitId(0));
        // Tail lock and pointer exist in the structure; the 100%-pop workload of the
        // paper never touches them, but allocating them keeps the layout faithful.
        let _tail_lock = space.allocate_shared_rw(64, UnitId(0));
        let _tail_addr = space.allocate_shared_rw(64, UnitId(0));
        let pool = NodePool::allocate(
            space,
            self.config.initial_size + clients.len() * self.config.ops_per_core as usize + 1,
            false,
        );
        let shared = Arc::new(Mutex::new(QueueShared { head: 0 }));
        clients
            .iter()
            .map(|_| {
                Box::new(ScriptProgram::new(QueueGen {
                    cfg: self.config,
                    head_lock,
                    head_addr,
                    pool: pool.clone(),
                    shared: Arc::clone(&shared),
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// A small array map (10 entries in Table 6) protected by one lock; lookups scan the
/// whole array inside the critical section, making it the longest critical section of
/// the group (and the least scalable structure in Figure 11).
#[derive(Clone, Copy, Debug)]
pub struct ArrayMap {
    /// Sizing parameters (`initial_size` is the number of array entries).
    pub config: DsConfig,
}

impl ArrayMap {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        ArrayMap { config }
    }
}

struct ArrayMapGen {
    cfg: DsConfig,
    lock: Addr,
    entries: Addr,
    remaining: u32,
}

impl OpGenerator for ArrayMapGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        build::compute(script, self.cfg.think_instrs);
        build::lock(script, self.lock);
        for i in 0..self.cfg.initial_size as u64 {
            build::load(script, self.entries.offset(i * Addr::LINE_BYTES));
        }
        build::unlock(script, self.lock);
        Refill::NewOp
    }
}

impl Workload for ArrayMap {
    fn name(&self) -> String {
        "array-map".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let lock = space.allocate_shared_rw(64, UnitId(0));
        let entries =
            space.allocate_shared_rw(self.config.initial_size.max(1) as u64 * 64, UnitId(0));
        clients
            .iter()
            .map(|_| {
                Box::new(ScriptProgram::new(ArrayMapGen {
                    cfg: self.config,
                    lock,
                    entries,
                    remaining: self.config.ops_per_core,
                })) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// A binary-heap priority queue protected by one lock; every core performs
/// `ops_per_core` deleteMin operations (Table 6: 20 K elements, 100% deleteMin).
#[derive(Clone, Copy, Debug)]
pub struct PriorityQueue {
    /// Sizing parameters.
    pub config: DsConfig,
}

impl PriorityQueue {
    /// Creates the benchmark.
    pub fn new(config: DsConfig) -> Self {
        PriorityQueue { config }
    }
}

#[derive(Debug)]
struct PqShared {
    size: u64,
}

struct PqGen {
    cfg: DsConfig,
    lock: Addr,
    size_addr: Addr,
    pool: NodePool,
    shared: Arc<Mutex<PqShared>>,
    remaining: u32,
}

impl OpGenerator for PqGen {
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        if self.remaining == 0 {
            return Refill::Finished;
        }
        self.remaining -= 1;
        let mut shared = self.shared.lock().expect("workload state poisoned");
        let size = shared.size.max(2);
        shared.size = shared.size.saturating_sub(1).max(2);
        build::compute(script, self.cfg.think_instrs);
        build::lock(script, self.lock);
        build::load(script, self.size_addr);
        build::load(script, self.pool.node(0));
        // Sift-down along one root-to-leaf path: the critical section grows with
        // log2(size), which is what makes the priority queue scale poorly.
        let mut idx = 0u64;
        while 2 * idx + 2 < size {
            let left = 2 * idx + 1;
            let right = 2 * idx + 2;
            build::load(script, self.pool.node(left));
            build::load(script, self.pool.node(right));
            build::store(script, self.pool.node(idx));
            idx = left;
        }
        build::store(script, self.size_addr);
        build::unlock(script, self.lock);
        Refill::NewOp
    }
}

impl Workload for PriorityQueue {
    fn name(&self) -> String {
        "priority-queue".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let lock = space.allocate_shared_rw(64, UnitId(0));
        let size_addr = space.allocate_shared_rw(64, UnitId(0));
        let pool = NodePool::allocate(space, self.config.initial_size.max(4), false);
        let shared = Arc::new(Mutex::new(PqShared {
            size: self.config.initial_size as u64,
        }));
        clients
            .iter()
            .map(|_| {
                Box::new(ScriptProgram::new(PqGen {
                    cfg: self.config,
                    lock,
                    size_addr,
                    pool: pool.clone(),
                    shared: Arc::clone(&shared),
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
    fn stack_completes_and_counts_pushes() {
        let report = run_workload(
            &config(MechanismKind::SynCron),
            &Stack::new(DsConfig::new(1000, 15)),
        );
        assert!(report.completed);
        assert_eq!(report.total_ops, 6 * 15);
        assert!(report.sync_requests >= 2 * report.total_ops);
    }

    #[test]
    fn queue_and_arraymap_complete_under_all_mechanisms() {
        for kind in MechanismKind::COMPARED {
            let q = run_workload(&config(kind), &Queue::new(DsConfig::new(500, 10)));
            assert!(q.completed, "queue under {kind:?}");
            let m = run_workload(&config(kind), &ArrayMap::new(DsConfig::new(10, 10)));
            assert!(m.completed, "array map under {kind:?}");
        }
    }

    #[test]
    fn priority_queue_critical_section_grows_with_size() {
        let small = run_workload(
            &config(MechanismKind::Ideal),
            &PriorityQueue::new(DsConfig::new(64, 10)),
        );
        let large = run_workload(
            &config(MechanismKind::Ideal),
            &PriorityQueue::new(DsConfig::new(4096, 10)),
        );
        assert!(large.sim_time > small.sim_time);
        assert!(large.loads > small.loads);
    }

    #[test]
    fn high_contention_favors_hierarchical_schemes() {
        // The stack is the paper's canonical high-contention benchmark: SynCron should
        // beat Central clearly (Figure 11, first row).
        let central = run_workload(
            &config(MechanismKind::Central),
            &Stack::new(DsConfig::new(1000, 25)),
        );
        let syncron = run_workload(
            &config(MechanismKind::SynCron),
            &Stack::new(DsConfig::new(1000, 25)),
        );
        assert!(
            syncron.sim_time < central.sim_time,
            "SynCron {} vs Central {}",
            syncron.sim_time,
            central.sim_time
        );
    }

    #[test]
    fn array_map_scales_worst_of_the_group() {
        // Longer critical sections serialize the cores: throughput per op should be
        // lower than the stack's under the same scheme.
        let stack = run_workload(
            &config(MechanismKind::SynCron),
            &Stack::new(DsConfig::new(1000, 20)),
        );
        let map = run_workload(
            &config(MechanismKind::SynCron),
            &ArrayMap::new(DsConfig::new(10, 20)),
        );
        assert!(map.ops_per_ms() < stack.ops_per_ms());
    }
}
