//! Script-based core programs.
//!
//! Most workloads in the evaluation have a regular per-operation structure: some local
//! compute, a traversal over the data structure (a sequence of loads and, for
//! fine-grained structures, lock acquisitions), a critical section, and the releases.
//! [`ScriptProgram`] captures that pattern: an [`OpGenerator`] produces the action
//! sequence of the *next* operation against the shared workload state, and the program
//! replays it one action at a time as the simulated core advances. A generator may also
//! hand out a long operation in pieces (a time-series diagonal one step at a time), so
//! a core buffers only the actions it is about to replay.

use std::collections::VecDeque;

use syncron_sim::time::Time;
use syncron_sim::GlobalCoreId;
use syncron_system::workload::{Action, CoreProgram};

/// What one [`OpGenerator::next_op`] call appended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Refill {
    /// The appended actions begin a new operation (the program counts it).
    NewOp,
    /// The appended actions continue the operation already counted.
    Continue,
    /// Nothing was appended: the core has no more operations.
    Finished,
}

/// Produces the per-operation action sequences of one core.
pub trait OpGenerator: Send {
    /// Appends the core's next actions to `script`: a whole operation, or the next
    /// piece of one, and says which (see [`Refill`]).
    fn next_op(&mut self, core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill;
}

/// A [`CoreProgram`] that replays operations produced by an [`OpGenerator`].
#[derive(Debug)]
pub struct ScriptProgram<G> {
    generator: G,
    script: VecDeque<Action>,
    ops: u64,
    finished: bool,
}

impl<G: OpGenerator> ScriptProgram<G> {
    /// Wraps an operation generator.
    pub fn new(generator: G) -> Self {
        ScriptProgram {
            generator,
            script: VecDeque::new(),
            ops: 0,
            finished: false,
        }
    }

    /// The generated actions not replayed yet.
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> &VecDeque<Action> {
        &self.script
    }
}

impl<G: OpGenerator> CoreProgram for ScriptProgram<G> {
    fn step(&mut self, core: GlobalCoreId, _now: Time) -> Action {
        loop {
            if let Some(action) = self.script.pop_front() {
                return action;
            }
            if self.finished {
                return Action::Done;
            }
            match self.generator.next_op(core, &mut self.script) {
                Refill::NewOp => self.ops += 1,
                Refill::Continue => {}
                Refill::Finished => self.finished = true,
            }
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

/// Small helpers for building action scripts.
pub mod build {
    use super::*;
    use syncron_core::request::SyncRequest;
    use syncron_sim::Addr;

    /// Pushes a compute action of `instrs` instructions (skipped when zero).
    pub fn compute(script: &mut VecDeque<Action>, instrs: u64) {
        if instrs > 0 {
            script.push_back(Action::Compute { instrs });
        }
    }

    /// Pushes a load.
    pub fn load(script: &mut VecDeque<Action>, addr: Addr) {
        script.push_back(Action::Load { addr });
    }

    /// Pushes a store.
    pub fn store(script: &mut VecDeque<Action>, addr: Addr) {
        script.push_back(Action::Store { addr });
    }

    /// Pushes a lock acquisition.
    pub fn lock(script: &mut VecDeque<Action>, var: Addr) {
        script.push_back(Action::Sync(SyncRequest::LockAcquire { var }));
    }

    /// Pushes a lock release.
    pub fn unlock(script: &mut VecDeque<Action>, var: Addr) {
        script.push_back(Action::Sync(SyncRequest::LockRelease { var }));
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use syncron_sim::{Addr, CoreId, UnitId};

    struct TwoOps {
        remaining: u32,
    }

    impl OpGenerator for TwoOps {
        fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
            if self.remaining == 0 {
                return Refill::Finished;
            }
            self.remaining -= 1;
            compute(script, 10);
            load(script, Addr(0x40));
            store(script, Addr(0x80));
            Refill::NewOp
        }
    }

    #[test]
    fn replays_generated_actions_then_finishes() {
        let core = GlobalCoreId::new(UnitId(0), CoreId(0));
        let mut p = ScriptProgram::new(TwoOps { remaining: 2 });
        let mut actions = Vec::new();
        loop {
            let a = p.step(core, Time::ZERO);
            if a == Action::Done {
                break;
            }
            actions.push(a);
        }
        assert_eq!(actions.len(), 6);
        assert_eq!(actions[0], Action::Compute { instrs: 10 });
        assert_eq!(actions[1], Action::Load { addr: Addr(0x40) });
        assert_eq!(p.ops_completed(), 2);
        // Once done, it stays done.
        assert_eq!(p.step(core, Time::ZERO), Action::Done);
    }

    #[test]
    fn zero_compute_is_elided() {
        let mut script = VecDeque::new();
        compute(&mut script, 0);
        assert!(script.is_empty());
        lock(&mut script, Addr(0x100));
        unlock(&mut script, Addr(0x100));
        assert_eq!(script.len(), 2);
    }

    #[test]
    fn empty_generator_finishes_immediately() {
        struct Never;
        impl OpGenerator for Never {
            fn next_op(&mut self, _c: GlobalCoreId, _s: &mut VecDeque<Action>) -> Refill {
                Refill::Finished
            }
        }
        let core = GlobalCoreId::new(UnitId(0), CoreId(0));
        let mut p = ScriptProgram::new(Never);
        assert_eq!(p.step(core, Time::ZERO), Action::Done);
        assert_eq!(p.ops_completed(), 0);
    }
}
