//! Graphs, graph generation and partitioning.
//!
//! The paper's graph applications (Table 6) run over four real-world graphs
//! (wikipedia-20051105, soc-LiveJournal1, sx-stackoverflow, com-Orkut) statically
//! partitioned across NDP units. Those datasets are not redistributable here, so this
//! module provides an R-MAT (power-law) and a uniform random generator whose outputs
//! have the structural properties the evaluation depends on — degree skew (contention
//! on hub vertices) and partition locality — plus a greedy min-edge-cut partitioner
//! standing in for Metis (Figure 19).

pub mod apps;

pub use apps::{GraphAlgo, GraphApp, Partitioning};

use std::sync::{Arc, Mutex, PoisonError};

use syncron_sim::rng::SimRng;

/// An undirected graph in CSR form.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Number of vertices.
    pub vertices: usize,
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl Graph {
    /// Builds a CSR graph from an edge list (both directions are inserted).
    pub fn from_edges(vertices: usize, edge_list: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; vertices];
        for &(a, b) in edge_list {
            if a == b || a as usize >= vertices || b as usize >= vertices {
                continue;
            }
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = vec![0u32; vertices + 1];
        for v in 0..vertices {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![0u32; offsets[vertices] as usize];
        for &(a, b) in edge_list {
            if a == b || a as usize >= vertices || b as usize >= vertices {
                continue;
            }
            edges[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            edges[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        Graph {
            vertices,
            offsets,
            edges,
        }
    }

    /// Generates a uniform random graph with `vertices` vertices and roughly
    /// `avg_degree` undirected edges per vertex.
    pub fn uniform(vertices: usize, avg_degree: usize, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let target_edges = vertices * avg_degree / 2;
        let mut edge_list = Vec::with_capacity(target_edges);
        for _ in 0..target_edges {
            let a = rng.gen_range(vertices as u64) as u32;
            let b = rng.gen_range(vertices as u64) as u32;
            edge_list.push((a, b));
        }
        Graph::from_edges(vertices, &edge_list)
    }

    /// Generates an R-MAT (power-law) graph with `vertices` vertices (rounded up to a
    /// power of two internally) and roughly `avg_degree` undirected edges per vertex,
    /// using the canonical partition probabilities (a, b, c) = (0.57, 0.19, 0.19).
    pub fn rmat(vertices: usize, avg_degree: usize, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let scale = usize::BITS - vertices.max(2).next_power_of_two().leading_zeros() - 1;
        let target_edges = vertices * avg_degree / 2;
        let mut edge_list = Vec::with_capacity(target_edges);
        for _ in 0..target_edges {
            let (mut lo_a, mut lo_b) = (0u32, 0u32);
            for _ in 0..scale {
                let r = rng.gen_f64();
                let (da, db) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                lo_a = (lo_a << 1) | da;
                lo_b = (lo_b << 1) | db;
            }
            let a = lo_a % vertices.max(1) as u32;
            let b = lo_b % vertices.max(1) as u32;
            edge_list.push((a, b));
        }
        Graph::from_edges(vertices, &edge_list)
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbors of vertex `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Total number of directed edge slots (twice the undirected edge count).
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Maximum vertex degree (the "hub" size — R-MAT graphs have much larger hubs than
    /// uniform graphs of the same average degree).
    pub fn max_degree(&self) -> usize {
        (0..self.vertices as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Assigns vertices to `parts` partitions by striping vertex IDs (the paper's default
/// static partitioning).
pub fn partition_striped(vertices: usize, parts: usize) -> Vec<u32> {
    (0..vertices).map(|v| (v % parts) as u32).collect()
}

/// Greedy BFS-grown balanced partitioning that minimizes crossing edges — the stand-in
/// for the Metis partitioning of Figure 19.
pub fn partition_greedy(graph: &Graph, parts: usize) -> Vec<u32> {
    let n = graph.vertices;
    let capacity = n.div_ceil(parts);
    let mut assignment = vec![u32::MAX; n];
    let mut sizes = vec![0usize; parts];
    let mut current_part = 0usize;
    let mut queue = std::collections::VecDeque::new();

    for start in 0..n as u32 {
        if assignment[start as usize] != u32::MAX {
            continue;
        }
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            if assignment[v as usize] != u32::MAX {
                continue;
            }
            // Move to the next partition once the current one is full.
            while sizes[current_part] >= capacity && current_part + 1 < parts {
                current_part += 1;
            }
            assignment[v as usize] = current_part as u32;
            sizes[current_part] += 1;
            for &u in graph.neighbors(v) {
                if assignment[u as usize] == u32::MAX {
                    queue.push_back(u);
                }
            }
        }
    }
    assignment
}

/// Number of undirected edges whose endpoints live in different partitions.
pub fn edge_cut(graph: &Graph, assignment: &[u32]) -> usize {
    let mut cut = 0;
    for v in 0..graph.vertices as u32 {
        for &u in graph.neighbors(v) {
            if u > v && assignment[v as usize] != assignment[u as usize] {
                cut += 1;
            }
        }
    }
    cut
}

/// A named synthetic graph configuration standing in for one of the paper's inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphInput {
    /// Label used in reports (the paper's input abbreviation: wk, sl, sx, co).
    pub name: &'static str,
    /// Number of vertices.
    pub vertices: usize,
    /// Average degree.
    pub avg_degree: usize,
    /// Whether to use the R-MAT (power-law) generator; otherwise uniform.
    pub rmat: bool,
}

impl GraphInput {
    /// Synthetic stand-ins for the paper's four graphs, at simulation-tractable scale
    /// but with increasing size and realistic degree skew (see "Synthetic inputs" in
    /// `ARCHITECTURE.md`).
    pub const ALL: [GraphInput; 4] = [
        GraphInput {
            name: "wk",
            vertices: 3_000,
            avg_degree: 8,
            rmat: true,
        },
        GraphInput {
            name: "sl",
            vertices: 4_500,
            avg_degree: 10,
            rmat: true,
        },
        GraphInput {
            name: "sx",
            vertices: 6_000,
            avg_degree: 8,
            rmat: false,
        },
        GraphInput {
            name: "co",
            vertices: 8_000,
            avg_degree: 12,
            rmat: true,
        },
    ];

    /// Looks up an input by its label.
    pub fn by_name(name: &str) -> Option<GraphInput> {
        GraphInput::ALL.iter().copied().find(|g| g.name == name)
    }

    /// Generates the graph for this input.
    pub fn generate(&self, seed: u64) -> Graph {
        if self.rmat {
            Graph::rmat(self.vertices, self.avg_degree, seed)
        } else {
            Graph::uniform(self.vertices, self.avg_degree, seed)
        }
    }

    /// The process-wide graph for this input at `seed`: built by the first request,
    /// then handed out as the same read-only allocation while it stays cached.
    ///
    /// The graph is a pure function of the input's shape and the seed, so sharing one
    /// cannot change a result, and a sweep that builds many machines over one input
    /// (every scheme, every ST size) generates it once. The cache keeps the
    /// [`GraphInput::ALL`]`.len()` most recently used graphs, so the paper's four
    /// inputs at one seed never rebuild and a seed sweep keeps at most four graphs
    /// (0.94 MB for the four inputs, 1.7 MB for four `co` graphs).
    pub fn shared(&self, seed: u64) -> Arc<Graph> {
        static GRAPHS: GraphCache = GraphCache::new(GraphInput::ALL.len());
        GRAPHS.get(self, seed)
    }
}

/// What a generated graph depends on: the input's shape and the seed, not its name.
type GraphKey = (usize, usize, bool, u64);

/// A bounded cache of generated graphs that evicts the least recently used one.
struct GraphCache {
    /// Cached graphs, least recently used first.
    entries: Mutex<Vec<(GraphKey, Arc<Graph>)>>,
    capacity: usize,
}

impl GraphCache {
    const fn new(capacity: usize) -> Self {
        GraphCache {
            entries: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// The cached graph for `input` at `seed`, generated under the lock when missing,
    /// so concurrent requests for one key share one graph. The list only ever holds
    /// complete entries, so a panic while the lock is held (in `generate`, say)
    /// cannot leave it inconsistent, and a poisoned lock is taken over.
    fn get(&self, input: &GraphInput, seed: u64) -> Arc<Graph> {
        let key = (input.vertices, input.avg_degree, input.rmat, seed);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = match entries.iter().position(|(k, _)| *k == key) {
            Some(hit) => entries.remove(hit),
            None => {
                let graph = Arc::new(input.generate(seed));
                if entries.len() >= self.capacity {
                    entries.remove(0);
                }
                (key, graph)
            }
        };
        let graph = Arc::clone(&entry.1);
        entries.push(entry);
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_construction_is_symmetric() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_eq!(g.vertices, 4);
        assert_eq!(g.edge_slots(), 8);
        assert!(g.neighbors(0).contains(&1));
        assert!(g.neighbors(1).contains(&0));
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn self_loops_and_out_of_range_edges_dropped() {
        let g = Graph::from_edges(3, &[(0, 0), (1, 7), (0, 1)]);
        assert_eq!(g.edge_slots(), 2);
    }

    #[test]
    fn generators_hit_requested_size() {
        let g = Graph::uniform(1000, 8, 1);
        assert_eq!(g.vertices, 1000);
        let avg = g.edge_slots() as f64 / g.vertices as f64;
        assert!(avg > 6.0 && avg < 10.0, "avg degree {avg}");
        let r = Graph::rmat(1000, 8, 1);
        assert_eq!(r.vertices, 1000);
    }

    #[test]
    fn rmat_is_more_skewed_than_uniform() {
        let u = Graph::uniform(2000, 8, 7);
        let r = Graph::rmat(2000, 8, 7);
        assert!(
            r.max_degree() > 2 * u.max_degree(),
            "R-MAT hub {} vs uniform hub {}",
            r.max_degree(),
            u.max_degree()
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = Graph::rmat(500, 8, 42);
        let b = Graph::rmat(500, 8, 42);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn striped_partitioning_is_balanced() {
        let p = partition_striped(10, 4);
        assert_eq!(p.len(), 10);
        for part in 0..4u32 {
            let count = p.iter().filter(|&&x| x == part).count();
            assert!((2..=3).contains(&count));
        }
    }

    #[test]
    fn greedy_partitioning_reduces_edge_cut() {
        let g = Graph::rmat(2000, 8, 3);
        let striped = partition_striped(g.vertices, 4);
        let greedy = partition_greedy(&g, 4);
        assert_eq!(greedy.len(), g.vertices);
        assert!(greedy.iter().all(|&p| p < 4));
        let cut_striped = edge_cut(&g, &striped);
        let cut_greedy = edge_cut(&g, &greedy);
        assert!(
            cut_greedy < cut_striped,
            "greedy cut {cut_greedy} should beat striped cut {cut_striped}"
        );
        // Balance: no partition holds more than ~2x its fair share.
        for part in 0..4u32 {
            let count = greedy.iter().filter(|&&x| x == part).count();
            assert!(count <= g.vertices / 2, "partition {part} holds {count}");
        }
    }

    /// A small R-MAT input; `vertices` tells shapes apart.
    fn small(name: &'static str, vertices: usize) -> GraphInput {
        GraphInput {
            name,
            vertices,
            avg_degree: 4,
            rmat: true,
        }
    }

    #[test]
    fn cache_shares_one_graph_per_shape_and_seed() {
        let cache = GraphCache::new(8);
        let input = small("a", 200);
        let graph = cache.get(&input, 1);
        assert!(Arc::ptr_eq(&graph, &cache.get(&input, 1)));
        // The name is a label only.
        assert!(Arc::ptr_eq(&graph, &cache.get(&small("b", 200), 1)));
        // Any part of the shape, or the seed, differing gives a graph of its own.
        let denser = GraphInput {
            avg_degree: 6,
            ..input
        };
        let uniform = GraphInput {
            rmat: false,
            ..input
        };
        for (other, seed) in [(input, 2), (small("a", 201), 1), (denser, 1), (uniform, 1)] {
            assert!(
                !Arc::ptr_eq(&graph, &cache.get(&other, seed)),
                "{other:?} at {seed}"
            );
        }
        // A cached graph is the one `generate` builds.
        for (input, seed) in [(input, 1), (uniform, 1), (GraphInput::ALL[0], 7)] {
            let (cached, built) = (cache.get(&input, seed), input.generate(seed));
            assert_eq!(cached.vertices, built.vertices);
            assert_eq!(cached.offsets, built.offsets);
            assert_eq!(cached.edges, built.edges);
        }
    }

    #[test]
    fn cache_evicts_the_least_recently_used_graph() {
        let cap = GraphInput::ALL.len();
        let cache = GraphCache::new(cap);
        let input = small("a", 100);
        let first: Vec<Arc<Graph>> = (0..cap as u64)
            .map(|seed| cache.get(&input, seed))
            .collect();
        // A hit refreshes seed 0, so seed 1 is now the least recently used.
        assert!(Arc::ptr_eq(&first[0], &cache.get(&input, 0)));
        let extra = cache.get(&input, cap as u64);
        assert_eq!(cache.entries.lock().unwrap().len(), cap);
        assert!(Arc::ptr_eq(&extra, &cache.get(&input, cap as u64)));
        assert!(Arc::ptr_eq(&first[0], &cache.get(&input, 0)));
        for (seed, graph) in first.iter().enumerate().skip(2) {
            assert!(Arc::ptr_eq(graph, &cache.get(&input, seed as u64)));
        }
        // Seed 1 was evicted and builds again, as an equal graph.
        let rebuilt = cache.get(&input, 1);
        assert!(!Arc::ptr_eq(&first[1], &rebuilt));
        assert_eq!(first[1].edges, rebuilt.edges);
        assert_eq!(cache.entries.lock().unwrap().len(), cap);
    }

    #[test]
    fn concurrent_requests_for_one_key_share_one_graph() {
        let cache = GraphCache::new(GraphInput::ALL.len());
        let barrier = std::sync::Barrier::new(2);
        let input = small("a", 2_000);
        let (a, b) = std::thread::scope(|s| {
            let ask = || {
                barrier.wait();
                cache.get(&input, 3)
            };
            let a = s.spawn(ask);
            let b = s.spawn(ask);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn named_inputs_resolve() {
        assert_eq!(GraphInput::ALL.len(), 4);
        assert!(GraphInput::by_name("wk").is_some());
        assert!(GraphInput::by_name("zz").is_none());
        let g = GraphInput::by_name("wk").unwrap().generate(1);
        assert_eq!(g.vertices, 3_000);
    }
}
