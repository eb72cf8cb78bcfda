//! Pointer-chasing concurrent data structures (Figure 11 of the paper).
//!
//! The paper evaluates lock-based concurrent data structures from the ASCYLIB library
//! used as key-value sets (Table 6): stack, queue, array map, priority queue, skip
//! list, hash table, linked list, an external fine-grained-locking BST, and the
//! Drachsler logically-ordered BST. Data structures are initialized with a fixed size
//! and statically partitioned across NDP units; each core then performs a fixed number
//! of operations of a single type (push, pop, lookup, deleteMin or delete).
//!
//! Four contention patterns emerge (Section 6.1.2) and are what the reproduction needs
//! to preserve:
//!
//! * **stack, queue, array map, priority queue** — a few coarse-grained locks, so all
//!   cores contend heavily;
//! * **skip list, hash table** — per-node / per-bucket locks, medium contention;
//! * **linked list, BST_FG** — fine-grained locks with several acquisitions per
//!   operation: low contention but high synchronization demand;
//! * **BST_Drachsler** — lock requests are a negligible fraction of all accesses.
//!
//! The module is split into [`coarse`] (the first group) and [`fine`] (the rest).

pub mod coarse;
pub mod fine;

pub use coarse::{ArrayMap, PriorityQueue, Queue, Stack};
pub use fine::{BstDrachsler, BstFineGrained, HashTable, LinkedList, SkipList};

use syncron_sim::{Addr, UnitId};
use syncron_system::address::{AddressSpace, DataClass};
use syncron_system::workload::Workload;

/// Common sizing parameters of a data-structure benchmark.
#[derive(Clone, Copy, Debug)]
pub struct DsConfig {
    /// Number of elements the structure is initialized with.
    pub initial_size: usize,
    /// Operations performed by every client core.
    pub ops_per_core: u32,
    /// Instructions of think time between operations.
    pub think_instrs: u64,
}

impl DsConfig {
    /// Creates a configuration.
    pub fn new(initial_size: usize, ops_per_core: u32) -> Self {
        DsConfig {
            initial_size,
            ops_per_core,
            think_instrs: 60,
        }
    }
}

/// A pool of fixed-size (64 B) nodes statically partitioned across NDP units, plus an
/// optional parallel array of per-node lock cells.
#[derive(Clone, Debug)]
pub struct NodePool {
    node_parts: Vec<Addr>,
    lock_parts: Vec<Addr>,
    nodes_per_unit: u64,
    units: usize,
}

impl NodePool {
    /// Allocates a pool of `nodes` nodes (shared read-write) spread across all units,
    /// with one lock cell per node when `with_locks` is set.
    pub fn allocate(space: &mut AddressSpace, nodes: usize, with_locks: bool) -> Self {
        let units = space.units();
        let nodes_per_unit = nodes.div_ceil(units).max(1) as u64;
        let node_parts = space.allocate_partitioned(
            nodes_per_unit * Addr::LINE_BYTES,
            DataClass::SharedReadWrite,
        );
        let lock_parts = if with_locks {
            space.allocate_partitioned(
                nodes_per_unit * Addr::LINE_BYTES,
                DataClass::SharedReadWrite,
            )
        } else {
            Vec::new()
        };
        NodePool {
            node_parts,
            lock_parts,
            nodes_per_unit,
            units,
        }
    }

    /// Address of node `index` (nodes are striped across units).
    pub fn node(&self, index: u64) -> Addr {
        let unit = (index % self.units as u64) as usize;
        let slot = (index / self.units as u64) % self.nodes_per_unit;
        self.node_parts[unit].offset(slot * Addr::LINE_BYTES)
    }

    /// Address of the lock cell protecting node `index`.
    ///
    /// # Panics
    ///
    /// Panics if the pool was allocated without locks.
    pub fn lock(&self, index: u64) -> Addr {
        assert!(!self.lock_parts.is_empty(), "pool has no lock cells");
        let unit = (index % self.units as u64) as usize;
        let slot = (index / self.units as u64) % self.nodes_per_unit;
        self.lock_parts[unit].offset(slot * Addr::LINE_BYTES)
    }

    /// The NDP unit that homes node `index`.
    pub fn home_of(&self, index: u64) -> UnitId {
        UnitId((index % self.units as u64) as u8)
    }
}

/// Names of all nine data-structure benchmarks, in the order of Figure 11.
pub const ALL_NAMES: [&str; 9] = [
    "stack",
    "queue",
    "array-map",
    "priority-queue",
    "skip-list",
    "hash-table",
    "linked-list",
    "bst-fg",
    "bst-drachsler",
];

/// Builds the data-structure benchmark called `name` (one of [`ALL_NAMES`]) with the
/// paper's default initialization size and `ops_per_core` operations per core.
///
/// Initialization sizes follow Table 6 (stack/queue 100 K, array map 10, priority queue
/// 20 K, skip list 5 K, hash table 1 K, linked list 20 K, BST_FG 20 K, BST_Drachsler
/// 10 K), except that the linked list's traversal length is capped by scaling its size
/// (see `DESIGN.md`).
pub fn by_name(name: &str, ops_per_core: u32) -> Option<Box<dyn Workload + Send + Sync>> {
    Some(match name {
        "stack" => Box::new(Stack::new(DsConfig::new(100_000, ops_per_core))),
        "queue" => Box::new(Queue::new(DsConfig::new(100_000, ops_per_core))),
        "array-map" => Box::new(ArrayMap::new(DsConfig::new(10, ops_per_core))),
        "priority-queue" => Box::new(PriorityQueue::new(DsConfig::new(20_000, ops_per_core))),
        "skip-list" => Box::new(SkipList::new(DsConfig::new(5_000, ops_per_core))),
        "hash-table" => Box::new(HashTable::new(DsConfig::new(1_000, ops_per_core))),
        "linked-list" => Box::new(LinkedList::new(DsConfig::new(512, ops_per_core))),
        "bst-fg" => Box::new(BstFineGrained::new(DsConfig::new(20_000, ops_per_core))),
        "bst-drachsler" => Box::new(BstDrachsler::new(DsConfig::new(10_000, ops_per_core))),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_pool_addresses_are_distinct_and_striped() {
        let mut space = AddressSpace::new(4);
        let pool = NodePool::allocate(&mut space, 1000, true);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(seen.insert(pool.node(i)), "duplicate node address for {i}");
            assert_eq!(pool.home_of(i), UnitId((i % 4) as u8));
            assert_eq!(space.home_unit(pool.node(i)), pool.home_of(i));
            assert_eq!(space.home_unit(pool.lock(i)), pool.home_of(i));
        }
    }

    #[test]
    #[should_panic]
    fn lockless_pool_panics_on_lock_access() {
        let mut space = AddressSpace::new(2);
        let pool = NodePool::allocate(&mut space, 16, false);
        let _ = pool.lock(0);
    }

    #[test]
    fn by_name_builds_every_benchmark() {
        for name in ALL_NAMES {
            let wl = by_name(name, 10).unwrap_or_else(|| panic!("missing workload {name}"));
            assert!(!wl.name().is_empty());
        }
        assert!(by_name("no-such-structure", 10).is_none());
    }
}
