//! Graph applications (Crono push style) with fine-grained synchronization.
//!
//! Table 6 of the paper: BFS, Connected Components, SSSP, PageRank, Teenage Followers
//! and Triangle Counting, all in the "push" style where a vertex pushes updates into
//! its neighbors' entries of a shared output array. The output array is read-write
//! shared data protected by **per-vertex locks** (fine-grained synchronization, low
//! contention), and iterations are separated by **global barriers** — exactly the
//! pattern the paper's real-application evaluation (Figures 12–15) exercises.

use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::Mutex;

use crate::graph::{partition_greedy, partition_striped, Graph, GraphInput};
use syncron_core::request::{BarrierScope, SyncRequest};
use syncron_sim::rng::SimRng;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId, UnitId};
use syncron_system::address::{AddressSpace, DataClass};
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

/// The six graph algorithms of Table 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphAlgo {
    /// Breadth-First Search (level-synchronous push).
    Bfs,
    /// Connected Components (label propagation).
    Cc,
    /// Single-Source Shortest Paths (Bellman–Ford rounds, unit weights).
    Sssp,
    /// PageRank (fixed number of push iterations).
    Pr,
    /// Teenage Followers (single pass, counter updates).
    Tf,
    /// Triangle Counting (single pass, neighborhood intersections).
    Tc,
}

impl GraphAlgo {
    /// All algorithms in the paper's order.
    pub const ALL: [GraphAlgo; 6] = [
        GraphAlgo::Bfs,
        GraphAlgo::Cc,
        GraphAlgo::Sssp,
        GraphAlgo::Pr,
        GraphAlgo::Tf,
        GraphAlgo::Tc,
    ];

    /// Short name used in reports (matches the paper's abbreviations).
    pub fn name(self) -> &'static str {
        match self {
            GraphAlgo::Bfs => "bfs",
            GraphAlgo::Cc => "cc",
            GraphAlgo::Sssp => "sssp",
            GraphAlgo::Pr => "pr",
            GraphAlgo::Tf => "tf",
            GraphAlgo::Tc => "tc",
        }
    }

    /// Looks up an algorithm by name.
    pub fn by_name(name: &str) -> Option<GraphAlgo> {
        GraphAlgo::ALL.iter().copied().find(|a| a.name() == name)
    }
}

/// How vertices are placed onto NDP units.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Partitioning {
    /// Stripe vertex IDs across units (the paper's default static partitioning).
    #[default]
    Striped,
    /// Greedy min-edge-cut partitioning (the Metis stand-in of Figure 19).
    Greedy,
}

/// A graph application workload: one algorithm over one (synthetic) input graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphApp {
    /// Algorithm to run.
    pub algo: GraphAlgo,
    /// Input graph configuration.
    pub input: GraphInput,
    /// Vertex placement policy.
    pub partitioning: Partitioning,
}

impl GraphApp {
    /// Creates a workload with the default (striped) partitioning.
    pub fn new(algo: GraphAlgo, input: GraphInput) -> Self {
        GraphApp {
            algo,
            input,
            partitioning: Partitioning::Striped,
        }
    }

    /// Uses the greedy (Metis-like) partitioning instead.
    pub fn with_partitioning(mut self, partitioning: Partitioning) -> Self {
        self.partitioning = partitioning;
        self
    }
}

/// Global (functional) algorithm state shared by all cores.
struct AlgoState {
    /// The input graph, shared read-only with every machine built over the same input
    /// ([`GraphInput::shared`]); the per-run values below belong to this machine.
    graph: Arc<Graph>,
    algo: GraphAlgo,
    /// Per-vertex value: BFS/SSSP distance, CC label, PR rank bucket, TF count, TC count.
    value: Vec<u32>,
    /// Vertices active in the iteration currently being generated.
    frontier: Vec<u32>,
    /// `frontier` as a per-vertex mask, rebuilt with it once per iteration.
    in_frontier: Vec<bool>,
    /// Vertices that become active next iteration.
    next_frontier: Vec<u32>,
    /// Neighbors that receive a locked update this iteration (per vertex flag).
    updated: Vec<bool>,
    iteration: u32,
    prepared_iteration: u32,
    finished: bool,
    max_iterations: u32,
    teen: Vec<bool>,
}

impl std::fmt::Debug for AlgoState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AlgoState({}, iter={}, finished={})",
            self.algo.name(),
            self.iteration,
            self.finished
        )
    }
}

impl AlgoState {
    fn new(graph: Arc<Graph>, algo: GraphAlgo, seed: u64) -> Self {
        let n = graph.vertices;
        let mut rng = SimRng::seed_from(seed);
        let teen = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let mut state = AlgoState {
            graph,
            algo,
            value: vec![u32::MAX; n],
            frontier: Vec::new(),
            in_frontier: vec![false; n],
            next_frontier: Vec::new(),
            updated: vec![false; n],
            iteration: 0,
            prepared_iteration: u32::MAX,
            finished: false,
            max_iterations: match algo {
                GraphAlgo::Bfs | GraphAlgo::Sssp => 40,
                GraphAlgo::Cc => 12,
                GraphAlgo::Pr => 3,
                GraphAlgo::Tf | GraphAlgo::Tc => 1,
            },
            teen,
        };
        state.prepare_first();
        state
    }

    fn prepare_first(&mut self) {
        let n = self.graph.vertices;
        match self.algo {
            GraphAlgo::Bfs | GraphAlgo::Sssp => {
                self.value[0] = 0;
                self.frontier = vec![0];
            }
            GraphAlgo::Cc => {
                for v in 0..n {
                    self.value[v] = v as u32;
                }
                self.frontier = (0..n as u32).collect();
            }
            GraphAlgo::Pr | GraphAlgo::Tf | GraphAlgo::Tc => {
                for v in 0..n {
                    self.value[v] = 0;
                }
                self.frontier = (0..n as u32).collect();
            }
        }
        self.mark_frontier();
        self.prepared_iteration = 0;
    }

    /// Rebuilds `in_frontier` from `frontier`.
    fn mark_frontier(&mut self) {
        self.in_frontier.fill(false);
        for &v in &self.frontier {
            self.in_frontier[v as usize] = true;
        }
    }

    /// Functionally advances the algorithm to iteration `k`, computing the active set
    /// and which neighbors receive locked updates. Called lazily by the first core
    /// that starts generating iteration `k`.
    fn prepare(&mut self, k: u32) {
        if self.finished || self.prepared_iteration == k {
            return;
        }
        debug_assert_eq!(k, self.prepared_iteration.wrapping_add(1));
        if k >= self.max_iterations {
            self.finished = true;
            self.frontier.clear();
            self.mark_frontier();
            self.prepared_iteration = k;
            return;
        }
        self.updated.iter_mut().for_each(|u| *u = false);
        match self.algo {
            GraphAlgo::Bfs | GraphAlgo::Sssp => {
                self.next_frontier.clear();
                let frontier = std::mem::take(&mut self.frontier);
                for &v in &frontier {
                    for &u in self.graph.neighbors(v) {
                        if self.value[u as usize] == u32::MAX {
                            self.value[u as usize] = k;
                            self.updated[u as usize] = true;
                            self.next_frontier.push(u);
                        }
                    }
                }
                self.frontier = std::mem::take(&mut self.next_frontier);
            }
            GraphAlgo::Cc => {
                self.next_frontier.clear();
                let frontier = std::mem::take(&mut self.frontier);
                for &v in &frontier {
                    for &u in self.graph.neighbors(v) {
                        if self.value[v as usize] < self.value[u as usize] {
                            self.value[u as usize] = self.value[v as usize];
                            self.updated[u as usize] = true;
                            self.next_frontier.push(u);
                        }
                    }
                }
                self.frontier = std::mem::take(&mut self.next_frontier);
            }
            GraphAlgo::Pr => {
                // Every vertex pushes every iteration.
                self.frontier = (0..self.graph.vertices as u32).collect();
                self.updated.iter_mut().for_each(|u| *u = true);
            }
            GraphAlgo::Tf | GraphAlgo::Tc => {
                self.frontier.clear();
            }
        }
        self.mark_frontier();
        self.prepared_iteration = k;
        if self.frontier.is_empty() || k >= self.max_iterations {
            self.finished = true;
        }
    }
}

/// Per-vertex address mapping derived from the partitioning.
#[derive(Clone, Debug)]
struct VertexLayout {
    assignment: Vec<u32>,
    local_index: Vec<u32>,
    out_parts: Vec<Addr>,
    lock_parts: Vec<Addr>,
    adj_parts: Vec<Addr>,
}

impl VertexLayout {
    fn out(&self, v: u32) -> Addr {
        self.part_addr(&self.out_parts, v)
    }
    fn lock(&self, v: u32) -> Addr {
        self.part_addr(&self.lock_parts, v)
    }
    fn adj(&self, v: u32, line: u64) -> Addr {
        self.part_addr(&self.adj_parts, v).offset(line * 64)
    }
    fn part_addr(&self, parts: &[Addr], v: u32) -> Addr {
        parts[self.assignment[v as usize] as usize]
            .offset(u64::from(self.local_index[v as usize]) * 64)
    }
}

struct GraphProgram {
    state: Arc<Mutex<AlgoState>>,
    layout: Arc<VertexLayout>,
    my_vertices: Vec<u32>,
    barrier: Addr,
    participants: u32,
    /// Actions of at most one vertex, plus the iteration's barrier after the last.
    script: VecDeque<Action>,
    /// This iteration's active vertices; `pending[next_pending..]` are not expanded yet.
    pending: Vec<u32>,
    next_pending: usize,
    iteration: u32,
    at_barrier: bool,
    done: bool,
    ops: u64,
    rng: SimRng,
}

impl GraphProgram {
    /// Starts iteration `self.iteration`: prepares the shared state, lists this core's
    /// active vertices in `pending` and counts them as operations. Their actions are
    /// expanded one vertex at a time as the core consumes them ([`Self::expand_next`]).
    fn generate_iteration(&mut self) {
        let mut state = self.state.lock().expect("workload state poisoned");
        state.prepare(self.iteration);
        self.pending.clear();
        self.next_pending = 0;
        if state.finished && state.frontier.is_empty() {
            // Nothing left to push; the cores still meet at the final barrier.
            return;
        }
        match state.algo {
            // Single-pass algorithms touch every owned vertex exactly once.
            GraphAlgo::Tf | GraphAlgo::Tc => {
                if self.iteration == 0 {
                    self.pending.extend_from_slice(&self.my_vertices);
                }
            }
            _ => self.pending.extend(
                self.my_vertices
                    .iter()
                    .copied()
                    .filter(|&v| state.in_frontier[v as usize]),
            ),
        }
        self.ops += self.pending.len() as u64;
    }

    /// Appends the next pending vertex's actions, and the iteration's barrier once no
    /// vertex is left. A vertex expanded late reads the same state it would have read
    /// at the start of its iteration: only `prepare` writes it, and the next
    /// `prepare` waits for this core's barrier.
    fn expand_next(&mut self) {
        if let Some(&v) = self.pending.get(self.next_pending) {
            self.next_pending += 1;
            self.expand_vertex(v);
        }
        if self.next_pending == self.pending.len() {
            self.script
                .push_back(Action::Sync(SyncRequest::BarrierWait {
                    var: self.barrier,
                    participants: self.participants,
                    scope: BarrierScope::AcrossUnits,
                }));
        }
    }

    /// Appends the actions of one push from vertex `v`.
    fn expand_vertex(&mut self, v: u32) {
        let state = self.state.lock().expect("workload state poisoned");
        // Read this vertex's own state and its adjacency list (read-only, cacheable;
        // one load per cache line of 8 edges).
        self.script.push_back(Action::Load {
            addr: self.layout.out(v),
        });
        let degree = state.graph.degree(v);
        for line in 0..degree.div_ceil(8).max(1) as u64 {
            self.script.push_back(Action::Load {
                addr: self.layout.adj(v, line),
            });
        }
        match state.algo {
            GraphAlgo::Bfs | GraphAlgo::Sssp | GraphAlgo::Cc => {
                for &u in state.graph.neighbors(v) {
                    self.script.push_back(Action::Compute { instrs: 4 });
                    self.script.push_back(Action::Load {
                        addr: self.layout.out(u),
                    });
                    if state.updated[u as usize] {
                        let lock = self.layout.lock(u);
                        self.script
                            .push_back(Action::Sync(SyncRequest::LockAcquire { var: lock }));
                        self.script.push_back(Action::Store {
                            addr: self.layout.out(u),
                        });
                        self.script
                            .push_back(Action::Sync(SyncRequest::LockRelease { var: lock }));
                    }
                }
            }
            GraphAlgo::Pr => {
                for &u in state.graph.neighbors(v) {
                    self.script.push_back(Action::Compute { instrs: 6 });
                    let lock = self.layout.lock(u);
                    self.script
                        .push_back(Action::Sync(SyncRequest::LockAcquire { var: lock }));
                    self.script.push_back(Action::Load {
                        addr: self.layout.out(u),
                    });
                    self.script.push_back(Action::Store {
                        addr: self.layout.out(u),
                    });
                    self.script
                        .push_back(Action::Sync(SyncRequest::LockRelease { var: lock }));
                }
            }
            GraphAlgo::Tf => {
                for &u in state.graph.neighbors(v) {
                    self.script.push_back(Action::Compute { instrs: 3 });
                    if state.teen[u as usize] {
                        let lock = self.layout.lock(u);
                        self.script
                            .push_back(Action::Sync(SyncRequest::LockAcquire { var: lock }));
                        self.script.push_back(Action::Load {
                            addr: self.layout.out(u),
                        });
                        self.script.push_back(Action::Store {
                            addr: self.layout.out(u),
                        });
                        self.script
                            .push_back(Action::Sync(SyncRequest::LockRelease { var: lock }));
                    }
                }
            }
            GraphAlgo::Tc => {
                for &u in state.graph.neighbors(v) {
                    if u <= v {
                        continue;
                    }
                    // Intersect the two adjacency lists (bounded scan).
                    let scan = state.graph.degree(u).min(16) as u64;
                    for line in 0..scan.div_ceil(8).max(1) {
                        self.script.push_back(Action::Load {
                            addr: self.layout.adj(u, line),
                        });
                    }
                    self.script.push_back(Action::Compute { instrs: 8 });
                }
                // One locked update of this vertex's triangle counter.
                let lock = self.layout.lock(v);
                self.script
                    .push_back(Action::Sync(SyncRequest::LockAcquire { var: lock }));
                self.script.push_back(Action::Store {
                    addr: self.layout.out(v),
                });
                self.script
                    .push_back(Action::Sync(SyncRequest::LockRelease { var: lock }));
            }
        }
        // A little per-vertex bookkeeping outside the locks.
        self.script.push_back(Action::Compute {
            instrs: 10 + self.rng.gen_range(8),
        });
    }
}

impl CoreProgram for GraphProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        loop {
            if let Some(action) = self.script.pop_front() {
                return action;
            }
            if self.done {
                return Action::Done;
            }
            if self.next_pending < self.pending.len() {
                self.expand_next();
                continue;
            }
            if self.at_barrier {
                // The barrier for this iteration completed.
                self.at_barrier = false;
                self.iteration += 1;
                let state = self.state.lock().expect("workload state poisoned");
                if (state.finished && state.prepared_iteration < self.iteration)
                    || self.iteration > state.max_iterations
                {
                    self.done = true;
                    return Action::Done;
                }
                continue;
            }
            // Start this iteration's work; the barrier follows its last vertex.
            self.generate_iteration();
            self.at_barrier = true;
            self.expand_next();
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

impl GraphApp {
    /// One program per client core, sharing the algorithm state.
    fn programs(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<GraphProgram> {
        let graph = self.input.shared(config.seed);
        let units = config.units;
        let assignment = match self.partitioning {
            Partitioning::Striped => partition_striped(graph.vertices, units),
            Partitioning::Greedy => partition_greedy(&graph, units),
        };
        // Dense per-unit local indices.
        let mut counters = vec![0u32; units];
        let mut local_index = vec![0u32; graph.vertices];
        for v in 0..graph.vertices {
            let part = assignment[v] as usize;
            local_index[v] = counters[part];
            counters[part] += 1;
        }
        let max_per_unit = counters.iter().copied().max().unwrap_or(1).max(1) as u64;
        let out_parts = space.allocate_partitioned(max_per_unit * 64, DataClass::SharedReadWrite);
        let lock_parts = space.allocate_partitioned(max_per_unit * 64, DataClass::SharedReadWrite);
        let adj_parts = space.allocate_partitioned(
            max_per_unit * 64 * 8, // room for up to 64 neighbours per vertex line-wise
            DataClass::SharedReadOnly,
        );
        let barrier = space.allocate_shared_rw(64, UnitId(0));

        // Distribute each unit's vertices round-robin over that unit's client cores.
        let clients_of_unit = |unit: usize| -> Vec<usize> {
            clients
                .iter()
                .enumerate()
                .filter(|(_, c)| c.unit.index() == unit)
                .map(|(i, _)| i)
                .collect()
        };
        let mut my_vertices: Vec<Vec<u32>> = vec![Vec::new(); clients.len()];
        for unit in 0..units {
            let owners = clients_of_unit(unit);
            if owners.is_empty() {
                continue;
            }
            let mut next = 0usize;
            for v in 0..graph.vertices as u32 {
                if assignment[v as usize] as usize == unit {
                    my_vertices[owners[next % owners.len()]].push(v);
                    next += 1;
                }
            }
        }

        let layout = Arc::new(VertexLayout {
            assignment,
            local_index,
            out_parts,
            lock_parts,
            adj_parts,
        });
        let state = Arc::new(Mutex::new(AlgoState::new(graph, self.algo, config.seed)));

        clients
            .iter()
            .enumerate()
            .map(|(i, _)| GraphProgram {
                state: Arc::clone(&state),
                layout: Arc::clone(&layout),
                my_vertices: std::mem::take(&mut my_vertices[i]),
                barrier,
                participants: clients.len() as u32,
                script: VecDeque::new(),
                pending: Vec::new(),
                next_pending: 0,
                iteration: 0,
                at_barrier: false,
                done: false,
                ops: 0,
                rng: SimRng::seed_from(config.seed ^ ((i as u64) << 32)),
            })
            .collect()
    }
}

impl Workload for GraphApp {
    fn name(&self) -> String {
        format!("{}.{}", self.algo.name(), self.input.name)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        self.programs(space, config, clients)
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn CoreProgram>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_core::MechanismKind;
    use syncron_system::run_workload;

    fn tiny_input() -> GraphInput {
        GraphInput {
            name: "tiny",
            vertices: 300,
            avg_degree: 6,
            rmat: true,
        }
    }

    fn config(kind: MechanismKind) -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism(kind)
            .build()
            .expect("valid config")
    }

    #[test]
    fn every_algorithm_completes() {
        for algo in GraphAlgo::ALL {
            let wl = GraphApp::new(algo, tiny_input());
            let report = run_workload(&config(MechanismKind::SynCron), &wl);
            assert!(report.completed, "{} did not complete", wl.name());
            assert!(report.total_ops > 0, "{}", wl.name());
            assert!(report.sync_requests > 0, "{}", wl.name());
        }
    }

    #[test]
    fn buffers_one_vertex_and_counts_an_iteration_at_its_first_step() {
        let config = config(MechanismKind::SynCron);
        let clients = config.client_cores();
        // Every vertex's actions end with one bookkeeping compute of 10–17
        // instructions; the per-edge computes take 3–8.
        let is_vertex_end = |a: &Action| matches!(a, Action::Compute { instrs } if *instrs >= 10);
        let is_barrier = |a: &Action| matches!(a, Action::Sync(SyncRequest::BarrierWait { .. }));
        for algo in GraphAlgo::ALL {
            let mut space = AddressSpace::new(config.units);
            let mut programs =
                GraphApp::new(algo, tiny_input()).programs(&mut space, &config, &clients);
            let mut done = vec![false; programs.len()];
            let mut largest_iteration = 0;
            // One round per iteration: each core in turn runs to its barrier (loads
            // and locks never block outside the machine), so no core starts
            // iteration k before every core has emitted iteration k - 1.
            while done.contains(&false) {
                for (i, program) in programs.iter_mut().enumerate() {
                    if done[i] {
                        continue;
                    }
                    let ops_before = program.ops_completed();
                    let mut counted = None;
                    let mut vertices = 0;
                    loop {
                        let refill = program.script.is_empty();
                        let action = program.step(clients[i], Time::ZERO);
                        if refill {
                            let buffered: Vec<Action> = std::iter::once(action)
                                .chain(program.script.iter().copied())
                                .collect();
                            let ends = buffered.iter().filter(|a| is_vertex_end(a)).count();
                            assert!(ends <= 1, "{}: more than one vertex buffered", algo.name());
                            if let Some(k) = buffered.iter().position(is_barrier) {
                                assert_eq!(
                                    k,
                                    buffered.len() - 1,
                                    "the barrier follows the vertices"
                                );
                            }
                        }
                        let ops = program.ops_completed() - ops_before;
                        assert_eq!(
                            *counted.get_or_insert(ops),
                            ops,
                            "{}: an iteration counts at its first step",
                            algo.name()
                        );
                        if is_vertex_end(&action) {
                            vertices += 1;
                        }
                        if action == Action::Done {
                            done[i] = true;
                            break;
                        }
                        if is_barrier(&action) {
                            break;
                        }
                    }
                    assert_eq!(Some(vertices), counted, "{}", algo.name());
                    largest_iteration = largest_iteration.max(vertices);
                }
            }
            assert!(
                largest_iteration > 1,
                "{}: no iteration to split",
                algo.name()
            );
        }
    }

    #[test]
    fn bfs_visits_every_reachable_vertex_functionally() {
        let wl = GraphApp::new(GraphAlgo::Bfs, tiny_input());
        let report = run_workload(&config(MechanismKind::Ideal), &wl);
        assert!(report.completed);
        // The per-vertex push operations processed across cores should cover at least
        // the vertices of the giant component once.
        assert!(
            report.total_ops >= 100,
            "only {} vertex-pushes",
            report.total_ops
        );
    }

    #[test]
    fn greedy_partitioning_reduces_inter_unit_traffic() {
        let striped = GraphApp::new(GraphAlgo::Pr, tiny_input());
        let greedy = striped.with_partitioning(Partitioning::Greedy);
        let r_striped = run_workload(&config(MechanismKind::SynCron), &striped);
        let r_greedy = run_workload(&config(MechanismKind::SynCron), &greedy);
        assert!(r_striped.completed && r_greedy.completed);
        assert!(
            r_greedy.traffic.inter_unit_bytes < r_striped.traffic.inter_unit_bytes,
            "greedy {} vs striped {}",
            r_greedy.traffic.inter_unit_bytes,
            r_striped.traffic.inter_unit_bytes
        );
    }

    #[test]
    fn hierarchical_schemes_beat_central_on_pagerank_at_scale() {
        // The Central server core becomes the bottleneck once all 60 client cores of
        // the paper's configuration issue fine-grained lock requests (Figure 12); with
        // only a handful of cores the single server is not saturated, so this check
        // uses the full-size system.
        let full = |kind| {
            NdpConfig::builder()
                .units(4)
                .cores_per_unit(16)
                .mechanism(kind)
                .build()
                .expect("valid config")
        };
        let wl = GraphApp::new(GraphAlgo::Pr, tiny_input());
        let central = run_workload(&full(MechanismKind::Central), &wl);
        let syncron = run_workload(&full(MechanismKind::SynCron), &wl);
        assert!(central.completed && syncron.completed);
        assert!(
            syncron.sim_time < central.sim_time,
            "SynCron {} vs Central {}",
            syncron.sim_time,
            central.sim_time
        );
    }

    #[test]
    fn algo_lookup_by_name() {
        assert_eq!(GraphAlgo::by_name("pr"), Some(GraphAlgo::Pr));
        assert_eq!(GraphAlgo::by_name("nope"), None);
        assert_eq!(GraphApp::new(GraphAlgo::Cc, tiny_input()).name(), "cc.tiny");
    }
}
