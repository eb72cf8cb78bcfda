//! Unit tests of the protocol engine, driven through a miniature context
//! without a machine (`harness::HarnessCtx`).

mod harness;

use super::*;
use crate::mechanism::{MechanismKind, MechanismParams};
use crate::request::BarrierScope;
use harness::*;

fn exercise_lock_mutual_exclusion(kind: MechanismKind) {
    let mut h = Harness::new(kind);
    let var = lock_var();
    let cores = [core(0, 0), core(0, 1), core(1, 0), core(2, 5), core(3, 2)];
    for &c in &cores {
        h.request(c, SyncRequest::LockAcquire { var });
    }
    // Exactly one acquisition is granted before any release.
    assert_eq!(h.completed().len(), 1, "{kind:?}");
    let mut held = h.completed()[0].0;
    let mut order = vec![held];
    for _ in 0..cores.len() - 1 {
        h.request(held, SyncRequest::LockRelease { var });
        let newly = h
            .completed()
            .last()
            .copied()
            .expect("a grant follows a release");
        assert_ne!(newly.0, held, "{kind:?}: release granted back to holder");
        held = newly.0;
        order.push(held);
    }
    h.request(held, SyncRequest::LockRelease { var });
    // Every core acquired the lock exactly once.
    let mut sorted: Vec<_> = order.iter().map(|c| c.flat_index(16)).collect();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        cores.len(),
        "{kind:?}: duplicate grants {order:?}"
    );
}

#[test]
fn lock_mutual_exclusion_all_mechanisms() {
    for kind in [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
        MechanismKind::SynCronFlat,
    ] {
        exercise_lock_mutual_exclusion(kind);
    }
}

#[test]
fn syncron_prefers_local_grants() {
    // Two cores of unit 1 (the variable's home) and one core of unit 3 compete.
    // After the first local release, the lock should be handed to the other local
    // waiter before leaving the unit.
    let mut h = Harness::new(MechanismKind::SynCron);
    let var = lock_var();
    h.request(core(1, 0), SyncRequest::LockAcquire { var });
    h.request(core(1, 1), SyncRequest::LockAcquire { var });
    h.request(core(3, 0), SyncRequest::LockAcquire { var });
    assert_eq!(h.completed().len(), 1);
    assert_eq!(h.completed()[0].0, core(1, 0));
    h.request(core(1, 0), SyncRequest::LockRelease { var });
    assert_eq!(h.completed()[1].0, core(1, 1), "local waiter served first");
    h.request(core(1, 1), SyncRequest::LockRelease { var });
    assert_eq!(h.completed()[2].0, core(3, 0));
    h.request(core(3, 0), SyncRequest::LockRelease { var });
}

#[test]
fn fairness_threshold_hands_lock_to_other_unit() {
    let params = MechanismParams::new(MechanismKind::SynCron).with_fairness_threshold(1);
    let mut h = Harness::with_params(params);
    let var = lock_var();
    h.request(core(1, 0), SyncRequest::LockAcquire { var });
    h.request(core(1, 1), SyncRequest::LockAcquire { var });
    h.request(core(3, 0), SyncRequest::LockAcquire { var });
    assert_eq!(h.completed()[0].0, core(1, 0));
    // Threshold of 1 consecutive local grant: on release the lock must go to the
    // waiting remote unit even though a local waiter exists.
    h.request(core(1, 0), SyncRequest::LockRelease { var });
    assert_eq!(
        h.completed()[1].0,
        core(3, 0),
        "fairness hand-off to unit 3"
    );
    h.request(core(3, 0), SyncRequest::LockRelease { var });
    assert_eq!(h.completed()[2].0, core(1, 1));
    h.request(core(1, 1), SyncRequest::LockRelease { var });
}

#[test]
fn full_system_barrier_releases_everyone() {
    for kind in [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
        MechanismKind::SynCronFlat,
    ] {
        let mut h = Harness::new(kind);
        let var = Addr(2 << 22);
        let total = 64u32;
        for u in 0..4u8 {
            for c in 0..16u8 {
                h.request(
                    core(u, c),
                    SyncRequest::BarrierWait {
                        var,
                        participants: total,
                        scope: BarrierScope::AcrossUnits,
                    },
                );
            }
        }
        assert_eq!(h.completed().len(), 64, "{kind:?}");
    }
}

#[test]
fn partial_barrier_uses_one_level_and_completes() {
    let mut h = Harness::new(MechanismKind::SynCron);
    let var = Addr(2 << 22);
    // 6 participants spread over 3 units (fewer than the 64 total cores).
    let participants = [
        core(0, 0),
        core(0, 1),
        core(1, 0),
        core(1, 1),
        core(2, 0),
        core(2, 1),
    ];
    for &c in &participants {
        h.request(
            c,
            SyncRequest::BarrierWait {
                var,
                participants: participants.len() as u32,
                scope: BarrierScope::AcrossUnits,
            },
        );
    }
    assert_eq!(h.completed().len(), participants.len());
}

#[test]
fn within_unit_barrier_stays_local() {
    let mut h = Harness::new(MechanismKind::SynCron);
    let var = Addr(3 << 22);
    for c in 0..8u8 {
        h.request(
            core(2, c),
            SyncRequest::BarrierWait {
                var,
                participants: 8,
                scope: BarrierScope::WithinUnit,
            },
        );
    }
    assert_eq!(h.completed().len(), 8);
    // A within-unit barrier at unit 2 for a variable homed at unit 1 never needs a
    // remote hop under SynCron.
    assert_eq!(h.ctx.remote_hops, 0);
}

#[test]
fn semaphore_grants_match_resources() {
    for kind in [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
    ] {
        let mut h = Harness::new(kind);
        let var = Addr(1 << 22);
        for c in 0..4u8 {
            h.request(core(0, c), SyncRequest::SemWait { var, initial: 2 });
        }
        assert_eq!(h.completed().len(), 2, "{kind:?}");
        h.request(core(0, 0), SyncRequest::SemPost { var });
        h.request(core(0, 1), SyncRequest::SemPost { var });
        assert_eq!(h.completed().len(), 4, "{kind:?}");
    }
}

#[test]
fn posts_before_the_first_wait_are_banked_not_clobbered() {
    // Post-before-wait is the deadlock-freedom invariant of the open-loop
    // deque workload: the first post initializes the semaphore, so the first
    // wait's `initial` must not reset the banked count.
    for kind in [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
    ] {
        let mut h = Harness::new(kind);
        let var = Addr(1 << 22);
        h.request(core(0, 0), SyncRequest::SemPost { var });
        h.request(core(0, 1), SyncRequest::SemPost { var });
        h.request(core(0, 0), SyncRequest::SemWait { var, initial: 0 });
        h.request(core(0, 1), SyncRequest::SemWait { var, initial: 0 });
        // Both waits consume the banked posts and complete immediately.
        assert_eq!(h.completed().len(), 2, "{kind:?}");
    }
}

#[test]
fn condvar_signal_and_broadcast() {
    let mut h = Harness::new(MechanismKind::SynCron);
    let cond = Addr(1 << 22);
    let lock = Addr((1 << 22) + 64);
    let signaler = core(1, 0);
    for c in 0..3u8 {
        h.request(core(0, c), SyncRequest::LockAcquire { var: lock });
        h.request(core(0, c), SyncRequest::CondWait { var: cond, lock });
    }
    // Three lock acquisitions completed; the cond_waits have not.
    assert_eq!(h.completed().len(), 3);
    h.request(signaler, SyncRequest::CondSignal { var: cond });
    // One waiter woken and re-acquired the lock, plus the signaler's ACK
    // (signal coalescing is on by default).
    assert_eq!(h.completed().len(), 5);
    let woken = h.completed()[3..]
        .iter()
        .map(|(c, _)| *c)
        .find(|c| *c != signaler)
        .expect("a waiter was woken");
    h.request(woken, SyncRequest::LockRelease { var: lock });
    h.request(signaler, SyncRequest::CondBroadcast { var: cond });
    // Remaining two waiters wake; they serialize on the lock.
    let done: Vec<_> = h.completed().iter().map(|(c, _)| *c).collect();
    assert!(done.len() >= 6, "{done:?}");
}

#[test]
fn coalesced_signal_is_consumed_by_a_later_wait_exactly_once() {
    for kind in [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
        MechanismKind::SynCronFlat,
    ] {
        let mut h = Harness::new(kind);
        let cond = Addr(1 << 22);
        let lock = Addr((1 << 22) + 64);
        let signaler = core(2, 0);

        // A signal with no queued waiter is banked (pending = 1), and the
        // signaler is ACKed instead of left to re-signal forever.
        h.request(signaler, SyncRequest::CondSignal { var: cond });
        assert_eq!(h.completed().len(), 1, "{kind:?}: signaler ACK");
        assert_eq!(h.completed()[0].0, signaler);

        // With the default pending cap of 1, a second wasted signal is NACKed
        // (it still completes the signaler, after the backoff delay).
        h.request(signaler, SyncRequest::CondSignal { var: cond });
        assert_eq!(h.completed().len(), 2, "{kind:?}: signaler NACK");
        let stats = h.mech.stats(h.ctx.now);
        assert_eq!(stats.coalesced_signals, 1, "{kind:?}");
        assert_eq!(stats.signal_nacks, 1, "{kind:?}");
        assert_eq!(stats.consumed_signals, 0, "{kind:?}");

        // The first cond_wait consumes the banked signal exactly once: it
        // completes immediately, keeping the associated lock.
        h.request(core(0, 0), SyncRequest::LockAcquire { var: lock });
        h.request(core(0, 0), SyncRequest::CondWait { var: cond, lock });
        assert_eq!(h.completed().len(), 4, "{kind:?}: wait consumed the signal");
        assert_eq!(h.mech.stats(h.ctx.now).consumed_signals, 1, "{kind:?}");
        h.request(core(0, 0), SyncRequest::LockRelease { var: lock });

        // The second cond_wait finds nothing banked and blocks.
        h.request(core(0, 1), SyncRequest::LockAcquire { var: lock });
        let before = h.completed().len();
        h.request(core(0, 1), SyncRequest::CondWait { var: cond, lock });
        assert_eq!(
            h.completed().len(),
            before,
            "{kind:?}: second wait must block (signal consumed exactly once)"
        );

        // A fresh signal is delivered to the queued waiter, not banked.
        h.request(signaler, SyncRequest::CondSignal { var: cond });
        let done: Vec<_> = h.completed().iter().map(|(c, _)| *c).collect();
        assert!(
            done.contains(&core(0, 1)),
            "{kind:?}: waiter woken {done:?}"
        );
        let stats = h.mech.stats(h.ctx.now);
        assert_eq!(
            stats.coalesced_signals, 1,
            "{kind:?}: delivery is not banked"
        );
        assert_eq!(stats.consumed_signals, 1, "{kind:?}");
    }
}

#[test]
fn nack_backoff_grows_exponentially_and_resets_on_acceptance() {
    let mut h = Harness::new(MechanismKind::Central);
    let cond = Addr(1 << 22);
    let lock = Addr((1 << 22) + 64);
    let signaler = core(0, 0);

    // First signal banks (pending cap = 1); the rest are NACKed with doubling
    // delays.
    h.request(signaler, SyncRequest::CondSignal { var: cond });
    let mut deltas = Vec::new();
    for _ in 0..4 {
        let before = h.ctx.now;
        h.request(signaler, SyncRequest::CondSignal { var: cond });
        let at = h.completed().last().unwrap().1;
        deltas.push(at.saturating_sub(before));
    }
    for pair in deltas.windows(2) {
        assert!(
            pair[1] > pair[0],
            "backoff must grow: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }

    // Consume the banked signal, then bank a fresh one: the acceptance resets
    // the signaler's streak, so the next NACK is fast again.
    h.request(core(0, 1), SyncRequest::LockAcquire { var: lock });
    h.request(core(0, 1), SyncRequest::CondWait { var: cond, lock });
    h.request(core(0, 1), SyncRequest::LockRelease { var: lock });
    h.request(signaler, SyncRequest::CondSignal { var: cond }); // banked: ACK, reset
    let before = h.ctx.now;
    h.request(signaler, SyncRequest::CondSignal { var: cond }); // NACK, streak 0
    let after_reset = h.completed().last().unwrap().1.saturating_sub(before);
    assert!(
        after_reset < *deltas.last().unwrap(),
        "reset streak must shrink the delay: {after_reset:?} vs {:?}",
        deltas.last().unwrap()
    );
}

#[test]
fn message_sizes_match_paper() {
    // Local: 64 address + 6 opcode + 6 core ID + 64 MessageInfo = 140 bits.
    assert_eq!((64u64 + 6 + 6 + 64).div_ceil(8), LOCAL_MSG_BYTES);
    // Global: 149 bits (Figure 6).
    assert_eq!(149u64.div_ceil(8), GLOBAL_MSG_BYTES);
}

#[test]
fn coalescing_off_preserves_fire_and_forget_signals() {
    let params = MechanismParams::new(MechanismKind::SynCron).with_signal_coalescing(false);
    let mut h = Harness::with_params(params);
    let cond = Addr(1 << 22);
    let req = SyncRequest::CondSignal { var: cond };
    assert!(
        !h.mech.blocks_core(&req),
        "without coalescing a signal stays req_async"
    );
    h.request(core(0, 0), req);
    assert!(h.completed().is_empty(), "no ACK, the signal is dropped");
    let stats = h.mech.stats(h.ctx.now);
    assert_eq!(stats.coalesced_signals, 0);
    assert_eq!(stats.signal_nacks, 0);
}

#[test]
fn coalescing_makes_signals_blocking_by_default() {
    let h = Harness::new(MechanismKind::Central);
    let var = lock_var();
    assert!(h.mech.blocks_core(&SyncRequest::CondSignal { var }));
    assert!(!h.mech.blocks_core(&SyncRequest::CondBroadcast { var }));
    assert!(!h.mech.blocks_core(&SyncRequest::LockRelease { var }));
    assert!(h.mech.blocks_core(&SyncRequest::LockAcquire { var }));
}

#[test]
fn syncron_uses_fewer_remote_hops_than_flat_under_contention() {
    let var = lock_var();
    let run = |kind: MechanismKind| {
        let mut h = Harness::new(kind);
        // All 8 cores of unit 0 (remote to the variable's home unit 1) contend.
        for c in 0..8u8 {
            h.request(core(0, c), SyncRequest::LockAcquire { var });
        }
        let mut holder = h.completed()[0].0;
        for _ in 0..7 {
            h.request(holder, SyncRequest::LockRelease { var });
            holder = h.completed().last().unwrap().0;
        }
        h.request(holder, SyncRequest::LockRelease { var });
        h.ctx.remote_hops
    };
    let hier = run(MechanismKind::SynCron);
    let flat = run(MechanismKind::SynCronFlat);
    assert!(
        hier < flat,
        "hierarchical SynCron ({hier} remote hops) must beat flat ({flat})"
    );
}

#[test]
fn syncron_avoids_memory_accesses_without_overflow() {
    let mut h = Harness::new(MechanismKind::SynCron);
    let var = lock_var();
    for c in 0..4u8 {
        h.request(core(0, c), SyncRequest::LockAcquire { var });
    }
    let mut holder = h.completed()[0].0;
    for _ in 0..3 {
        h.request(holder, SyncRequest::LockRelease { var });
        holder = h.completed().last().unwrap().0;
    }
    h.request(holder, SyncRequest::LockRelease { var });
    assert_eq!(h.ctx.mem_accesses, 0, "ST buffering must avoid memory");
    // Hier, in contrast, accesses memory for every message.
    let mut hh = Harness::new(MechanismKind::Hier);
    hh.request(core(0, 0), SyncRequest::LockAcquire { var });
    hh.request(core(0, 0), SyncRequest::LockRelease { var });
    assert!(hh.ctx.mem_accesses > 0);
}

#[test]
fn st_overflow_integrated_still_correct() {
    // A 2-entry ST with many distinct locks: most allocations overflow, requests
    // are redirected to the Master SE and serviced via memory, but mutual exclusion
    // and completion still hold.
    let params = MechanismParams::new(MechanismKind::SynCron).with_st_entries(2);
    let mut h = Harness::with_params(params);
    let locks: Vec<Addr> = (0..16).map(|i| Addr((1 << 22) + i * 64)).collect();
    for (i, &var) in locks.iter().enumerate() {
        let c = core((i % 4) as u8, (i % 16) as u8);
        h.request(c, SyncRequest::LockAcquire { var });
    }
    assert_eq!(
        h.completed().len(),
        locks.len(),
        "uncontended locks all granted"
    );
    for (i, &var) in locks.iter().enumerate() {
        let c = core((i % 4) as u8, (i % 16) as u8);
        h.request(c, SyncRequest::LockRelease { var });
    }
    let stats = h.mech.stats(h.ctx.now);
    assert!(stats.overflowed_requests > 0, "expected ST overflow");
    assert!(stats.mem_accesses > 0, "overflow must touch memory");
}

#[test]
fn misar_overflow_modes_cost_more_traffic_than_integrated() {
    let locks: Vec<Addr> = (0..24).map(|i| Addr((1 << 22) + i * 64)).collect();
    let run = |mode: OverflowMode| {
        let params = MechanismParams::new(MechanismKind::SynCron)
            .with_st_entries(2)
            .with_overflow_mode(mode);
        let mut h = Harness::with_params(params);
        // Hold many distinct locks at the same time so the 2-entry STs overflow.
        for (i, &var) in locks.iter().enumerate() {
            let c = core((i % 4) as u8, (i % 16) as u8);
            h.request(c, SyncRequest::LockAcquire { var });
        }
        for (i, &var) in locks.iter().enumerate() {
            let c = core((i % 4) as u8, (i % 16) as u8);
            h.request(c, SyncRequest::LockRelease { var });
        }
        assert_eq!(
            h.completed().len(),
            locks.len(),
            "{mode:?}: every acquire must complete"
        );
        h.ctx.local_hops + h.ctx.remote_hops
    };
    let integrated = run(OverflowMode::Integrated);
    let central = run(OverflowMode::MiSarCentral);
    let distrib = run(OverflowMode::MiSarDistributed);
    assert!(
        central > integrated,
        "central {central} vs integrated {integrated}"
    );
    assert!(
        distrib > integrated,
        "distrib {distrib} vs integrated {integrated}"
    );
}

#[test]
fn stats_track_messages_and_occupancy() {
    let mut h = Harness::new(MechanismKind::SynCron);
    let var = lock_var();
    h.request(core(0, 0), SyncRequest::LockAcquire { var });
    h.request(core(0, 0), SyncRequest::LockRelease { var });
    let stats = h.mech.stats(h.ctx.now);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.completions, 1);
    assert!(stats.local_messages >= 2);
    assert!(
        stats.global_messages >= 1,
        "acquire crossed to the master SE"
    );
    assert!(stats.st_max_occupancy > 0.0);
    assert_eq!(stats.overflowed_requests, 0);
}

#[test]
fn arena_recycles_slots_without_leaking_state_between_addresses() {
    let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::SynCron));
    let mut ctx = bare_ctx();
    let a = lock_var();
    let b = Addr(a.value() + 64);

    // Holding A occupies slots at the requesting unit (local lock) and the
    // master (master lock).
    mech.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var: a });
    drain_ctx(&mut mech, &mut ctx);
    let live: usize = mech.engines.iter().map(|e| e.vars.live()).sum();
    assert!(live >= 2, "holding a lock must occupy arena slots: {live}");

    // Releasing A must return every slot to the free list.
    mech.request(&mut ctx, core(0, 0), SyncRequest::LockRelease { var: a });
    drain_ctx(&mut mech, &mut ctx);
    for (i, e) in mech.engines.iter().enumerate() {
        assert_eq!(e.vars.live(), 0, "engine {i} leaked a slot");
    }

    // B now claims the recycled slots: the index answers B (not A) and the
    // recycled state is clean — no waiters or ownership leaked from A.
    mech.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var: b });
    drain_ctx(&mut mech, &mut ctx);
    let e0 = &mech.engines[0];
    assert!(e0.vars.lookup(a).is_none(), "stale index entry for A");
    let slot = e0.vars.lookup(b).expect("B tracked at the local engine") as usize;
    assert_eq!(e0.vars.addr(slot), b);
    let ll = e0.vars.local_lock(slot).expect("local lock state");
    assert_eq!(ll.holder, Some(core(0, 0)));
    assert!(ll.waiters.is_empty(), "waiters leaked across the recycle");
    assert!(ll.has_ownership);
    mech.request(&mut ctx, core(0, 0), SyncRequest::LockRelease { var: b });
    drain_ctx(&mut mech, &mut ctx);
}

#[test]
fn arena_tracks_colliding_addresses_in_distinct_slots() {
    // Addresses that share arena slots over time (or collide in the hash
    // index) must never share one *concurrently*: N simultaneously-held
    // locks occupy N distinct slots with independent state.
    let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::SynCron));
    let mut ctx = bare_ctx();
    let vars: Vec<Addr> = (0..8).map(|i| Addr((1 << 22) + i * 64)).collect();
    for (i, &var) in vars.iter().enumerate() {
        mech.request(&mut ctx, core(0, i as u8), SyncRequest::LockAcquire { var });
        drain_ctx(&mut mech, &mut ctx);
    }
    let e0 = &mech.engines[0];
    let mut slots: Vec<u32> = vars
        .iter()
        .map(|&v| e0.vars.lookup(v).expect("held lock tracked"))
        .collect();
    slots.sort_unstable();
    slots.dedup();
    assert_eq!(slots.len(), vars.len(), "two variables shared a slot");
    for (i, &var) in vars.iter().enumerate() {
        let slot = e0.vars.lookup(var).unwrap() as usize;
        assert_eq!(e0.vars.addr(slot), var);
        assert_eq!(
            e0.vars.local_lock(slot).unwrap().holder,
            Some(core(0, i as u8)),
            "slot state crossed between variables"
        );
    }
    for (i, &var) in vars.iter().enumerate() {
        mech.request(&mut ctx, core(0, i as u8), SyncRequest::LockRelease { var });
        drain_ctx(&mut mech, &mut ctx);
    }
}

#[test]
fn arena_stops_growing_after_warm_up() {
    // Steady state: 16 locks cycle concurrently for 25 rounds, churning
    // the free list. The arenas grow from empty during the first round;
    // after it, recycled slots serve every variable, so no arena grows.
    let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::SynCron));
    let mut ctx = bare_ctx();
    let vars: Vec<Addr> = (0..16).map(|i| Addr((1 << 22) + i * 64)).collect();
    let mut warm: Option<Vec<usize>> = None;
    for round in 0..25 {
        for (i, &var) in vars.iter().enumerate() {
            let c = core((i % 4) as u8, (i % 16) as u8);
            mech.request(&mut ctx, c, SyncRequest::LockAcquire { var });
            drain_ctx(&mut mech, &mut ctx);
        }
        for (i, &var) in vars.iter().enumerate() {
            let c = core((i % 4) as u8, (i % 16) as u8);
            mech.request(&mut ctx, c, SyncRequest::LockRelease { var });
            drain_ctx(&mut mech, &mut ctx);
        }
        let caps: Vec<usize> = mech.engines.iter().map(|e| e.vars.capacity()).collect();
        match &warm {
            None => {
                assert!(caps.iter().any(|&c| c > 0), "no engine tracked a lock");
                warm = Some(caps);
            }
            Some(warm) => assert_eq!(warm, &caps, "round {round} grew an arena"),
        }
    }
}

#[test]
fn batching_merges_broadcast_wakeups_without_changing_results() {
    // Central + condvar broadcast: the master injects one lock re-acquire
    // per waiter at the same timestamp, back to back — the canonical
    // O(waiters) -> O(1) batching case. Completions must be identical to
    // the stamp-less per-message reference; the event count must shrink.
    let run = |stamped: bool| {
        let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::Central));
        let mut ctx = HarnessCtx {
            stamped,
            ..bare_ctx()
        };
        let cond = Addr(1 << 22);
        let lock = Addr((1 << 22) + 64);
        for c in 0..6u8 {
            mech.request(&mut ctx, core(0, c), SyncRequest::LockAcquire { var: lock });
            drain_ctx(&mut mech, &mut ctx);
            mech.request(
                &mut ctx,
                core(0, c),
                SyncRequest::CondWait { var: cond, lock },
            );
            drain_ctx(&mut mech, &mut ctx);
        }
        mech.request(
            &mut ctx,
            core(1, 0),
            SyncRequest::CondBroadcast { var: cond },
        );
        drain_ctx(&mut mech, &mut ctx);
        // Serve the lock convoy to completion.
        for _ in 0..6 {
            let holder = ctx.completed.last().unwrap().0;
            mech.request(&mut ctx, holder, SyncRequest::LockRelease { var: lock });
            drain_ctx(&mut mech, &mut ctx);
        }
        (ctx.completed.clone(), ctx.queue.scheduled_total())
    };
    let (with_batching, events_batched) = run(true);
    let (without, events_unbatched) = run(false);
    assert_eq!(
        with_batching, without,
        "batching changed completion order or timing"
    );
    assert!(
        events_batched < events_unbatched,
        "broadcast wake-ups must coalesce: {events_batched} vs {events_unbatched}"
    );
}

#[test]
fn batching_preserves_all_protocol_semantics_across_mechanisms() {
    // The whole harness suite runs with batching on; this differential
    // re-runs a contended workload of every primitive under the
    // stamp-less per-message reference and pins completion-for-completion
    // equality, and that batching merged something.
    for kind in [
        MechanismKind::Central,
        MechanismKind::Hier,
        MechanismKind::SynCron,
        MechanismKind::SynCronFlat,
        MechanismKind::Mcs,
        MechanismKind::Adaptive,
    ] {
        let run = |stamped: bool| {
            let mut mech = ProtocolMechanism::new(config_4x16(kind));
            let mut ctx = HarnessCtx {
                stamped,
                ..bare_ctx()
            };
            // Barrier: every core of every unit arrives at once.
            let bar = Addr(2 << 22);
            for u in 0..4u8 {
                for c in 0..16u8 {
                    mech.request(
                        &mut ctx,
                        core(u, c),
                        SyncRequest::BarrierWait {
                            var: bar,
                            participants: 64,
                            scope: BarrierScope::AcrossUnits,
                        },
                    );
                }
            }
            drain_ctx(&mut mech, &mut ctx);
            assert_eq!(ctx.completed.len(), 64, "{kind:?}: barrier");
            // Lock: eight acquire/release pairs in turn.
            let lock = lock_var();
            for c in 0..8u8 {
                mech.request(&mut ctx, core(2, c), SyncRequest::LockAcquire { var: lock });
                drain_ctx(&mut mech, &mut ctx);
                mech.request(&mut ctx, core(2, c), SyncRequest::LockRelease { var: lock });
                drain_ctx(&mut mech, &mut ctx);
            }
            // Semaphore: three waiters on every unit against four
            // resources, then the eight missing posts at once.
            let sem = Addr(3 << 22);
            for u in 0..4u8 {
                for c in 8..11u8 {
                    mech.request(
                        &mut ctx,
                        core(u, c),
                        SyncRequest::SemWait {
                            var: sem,
                            initial: 4,
                        },
                    );
                }
            }
            drain_ctx(&mut mech, &mut ctx);
            assert_eq!(ctx.completed.len(), 64 + 8 + 4, "{kind:?}: sem initial");
            for u in 0..4u8 {
                for c in 12..14u8 {
                    mech.request(&mut ctx, core(u, c), SyncRequest::SemPost { var: sem });
                }
            }
            drain_ctx(&mut mech, &mut ctx);
            assert_eq!(ctx.completed.len(), 64 + 8 + 12, "{kind:?}: sem posts");
            // Condvar: two waiters on every unit; one signal, then a
            // broadcast, each woken waiter re-acquiring the lock in turn.
            let cond = Addr((1 << 22) + 128);
            let mut waiting = Vec::new();
            for u in 0..4u8 {
                for c in 4..6u8 {
                    mech.request(&mut ctx, core(u, c), SyncRequest::LockAcquire { var: lock });
                    drain_ctx(&mut mech, &mut ctx);
                    mech.request(
                        &mut ctx,
                        core(u, c),
                        SyncRequest::CondWait { var: cond, lock },
                    );
                    drain_ctx(&mut mech, &mut ctx);
                    waiting.push(core(u, c));
                }
            }
            let from = ctx.completed.len();
            mech.request(&mut ctx, core(1, 15), SyncRequest::CondSignal { var: cond });
            drain_ctx(&mut mech, &mut ctx);
            let holder = take_woken(&ctx.completed, from, &mut waiting);
            mech.request(&mut ctx, holder, SyncRequest::LockRelease { var: lock });
            drain_ctx(&mut mech, &mut ctx);
            let mut from = ctx.completed.len();
            mech.request(
                &mut ctx,
                core(3, 15),
                SyncRequest::CondBroadcast { var: cond },
            );
            drain_ctx(&mut mech, &mut ctx);
            while !waiting.is_empty() {
                let holder = take_woken(&ctx.completed, from, &mut waiting);
                from = ctx.completed.len();
                mech.request(&mut ctx, holder, SyncRequest::LockRelease { var: lock });
                drain_ctx(&mut mech, &mut ctx);
            }
            (ctx.completed, ctx.queue.scheduled_total())
        };
        let (batched, events_batched) = run(true);
        let (reference, events_reference) = run(false);
        assert_eq!(batched, reference, "{kind:?}");
        assert!(
            events_batched < events_reference,
            "{kind:?}: batching merged nothing ({events_batched} vs {events_reference} events)"
        );
    }
}

#[test]
fn central_serializes_all_requests_on_one_server() {
    // With Central, every request goes to unit 0's server; requests from unit 0
    // cores do not cross units but requests from other units do.
    let mut h = Harness::new(MechanismKind::Central);
    let var = lock_var(); // homed at unit 1, but Central serves everything at unit 0
    h.request(core(0, 0), SyncRequest::LockAcquire { var });
    assert_eq!(h.ctx.remote_hops, 0);
    h.request(core(0, 0), SyncRequest::LockRelease { var });
    h.request(core(2, 0), SyncRequest::LockAcquire { var });
    assert!(h.ctx.remote_hops > 0);
    h.request(core(2, 0), SyncRequest::LockRelease { var });
}
