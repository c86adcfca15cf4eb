//! Integration tests for the simulation kernel: scheduling, lazy clocks,
//! suspension/waking, kill semantics, determinism, and deadlock detection.
//!
//! The mixed-workload and kill tests assert literal run observables. They
//! were captured while a thread-per-rank backend still existed alongside
//! the coroutine kernel, and both backends produced exactly these values;
//! the numbers now pin that equivalence without the second backend.

use std::cell::RefCell;
use std::rc::Rc;

use ftmpi_sim::{ProcessExit, Reply, Sim, SimDuration, SimError, SimTime};

#[test]
fn empty_simulation_completes_at_time_zero() {
    let mut sim = Sim::new();
    let report = sim.run().unwrap();
    assert_eq!(report.final_time, SimTime::ZERO);
    assert_eq!(report.events_executed, 0);
}

#[test]
fn scheduled_closures_run_in_time_order() {
    let mut sim = Sim::new();
    let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for &t in &[30u64, 10, 20] {
        let log = Rc::clone(&log);
        sim.schedule(SimTime::from_nanos(t), move |sc| {
            log.borrow_mut().push(sc.now().as_nanos());
        });
    }
    let report = sim.run().unwrap();
    assert_eq!(*log.borrow_mut(), vec![10, 20, 30]);
    assert_eq!(report.final_time, SimTime::from_nanos(30));
}

#[test]
fn lazy_compute_advances_virtual_time_without_events() {
    let mut sim = Sim::new();
    sim.spawn("computer", |mut ctx| async move {
        ctx.advance(SimDuration::from_secs(100));
        ctx.sleep_until_local().await;
    });
    let report = sim.run().unwrap();
    assert_eq!(report.final_time, SimTime::from_nanos(100_000_000_000));
    // Spawn resume + one exec round-trip: compute itself cost no events.
    assert!(
        report.events_executed <= 4,
        "got {}",
        report.events_executed
    );
}

#[test]
fn sleep_interleaves_processes_deterministically() {
    let mut sim = Sim::new();
    let log: Rc<RefCell<Vec<(String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    for (name, step) in [("a", 3u64), ("b", 5u64)] {
        let log = Rc::clone(&log);
        sim.spawn(name, move |mut ctx| async move {
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_secs(step)).await;
                log.borrow_mut()
                    .push((ctx.name().to_string(), ctx.now().as_nanos() / 1_000_000_000));
            }
        });
    }
    sim.run().unwrap();
    let got = log.borrow_mut().clone();
    let expect = vec![
        ("a".to_string(), 3),
        ("b".to_string(), 5),
        ("a".to_string(), 6),
        ("a".to_string(), 9),
        ("b".to_string(), 10),
        ("b".to_string(), 15),
    ];
    assert_eq!(got, expect);
}

/// A tiny one-slot mailbox model: demonstrates (and tests) the
/// suspend/Reply/complete protocol between processes and model state.
#[derive(Default)]
struct Mailbox {
    value: Option<u64>,
    waiter: Option<Reply<u64>>,
}

#[test]
fn reply_wakes_parked_process_with_value() {
    let mut sim = Sim::new();
    let mbox: Rc<RefCell<Mailbox>> = Rc::new(RefCell::new(Mailbox::default()));

    let mb = Rc::clone(&mbox);
    sim.spawn("receiver", move |mut ctx| async move {
        let got = ctx
            .exec::<u64, _>(move |sc, reply| {
                let mut m = mb.borrow_mut();
                if let Some(v) = m.value.take() {
                    reply.complete(sc, v);
                } else {
                    m.waiter = Some(reply);
                }
            })
            .await;
        assert_eq!(got, 42);
        assert_eq!(ctx.now(), SimTime::from_nanos(7));
    });

    let mb = Rc::clone(&mbox);
    sim.schedule(SimTime::from_nanos(7), move |sc| {
        let mut m = mb.borrow_mut();
        if let Some(w) = m.waiter.take() {
            w.complete(sc, 42);
        } else {
            m.value = Some(42);
        }
    });

    let report = sim.run().unwrap();
    assert!(report
        .exits
        .iter()
        .all(|(_, _, e)| *e == ProcessExit::Normal));
}

#[test]
fn complete_at_delays_the_wake() {
    let mut sim = Sim::new();
    sim.spawn("sleeper", |mut ctx| async move {
        let v = ctx
            .exec::<u32, _>(|sc, reply| {
                let at = sc.now() + SimDuration::from_secs(9);
                reply.complete_at(sc, at, 5);
            })
            .await;
        assert_eq!(v, 5);
        assert_eq!(ctx.now().as_secs_f64(), 9.0);
    });
    let report = sim.run().unwrap();
    assert_eq!(report.final_time, SimTime::from_nanos(9_000_000_000));
}

#[test]
fn killed_process_unwinds_and_reports_killed_exit() {
    let mut sim = Sim::new();
    let flag = sim.shared_flag();
    let f2 = flag.clone();
    let victim = sim.spawn("victim", move |mut ctx| async move {
        ctx.sleep(SimDuration::from_secs(1_000_000)).await;
        f2.set(); // must never run
    });
    sim.schedule(SimTime::from_nanos(5), move |sc| sc.kill(victim));
    let report = sim.run().unwrap();
    assert!(!flag.get());
    let exit = report
        .exits
        .iter()
        .find(|(pid, _, _)| *pid == victim)
        .map(|(_, _, e)| e.clone())
        .unwrap();
    assert_eq!(exit, ProcessExit::Killed);
    // The pending sleep-wake must not resurrect the process.
    assert_eq!(report.final_time, SimTime::from_nanos(5));
}

#[test]
fn kill_is_noop_for_finished_process() {
    let mut sim = Sim::new();
    let p = sim.spawn("quick", |_ctx| async {});
    sim.schedule(SimTime::from_nanos(100), move |sc| {
        assert!(!sc.is_alive(p));
        sc.kill(p); // must not panic or hang
    });
    sim.run().unwrap();
}

#[test]
fn process_panic_surfaces_as_error() {
    let mut sim = Sim::new();
    sim.spawn("buggy", |_ctx| async { panic!("boom") });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "buggy");
            assert!(message.contains("boom"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn unwakeable_process_is_reported_as_deadlock() {
    let mut sim = Sim::new();
    sim.spawn("stuck", |mut ctx| async move {
        // Suspend with a reply nobody will ever complete.
        ctx.exec::<(), _>(|_sc, _reply| {
            // drop the reply
        })
        .await;
    });
    match sim.run() {
        Err(SimError::Deadlock(info)) => {
            assert_eq!(info.parked, vec!["stuck".to_string()]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn event_budget_guards_against_runaway_models() {
    let mut sim = Sim::new();
    sim.set_max_events(100);
    fn reschedule(sc: &ftmpi_sim::SimCtx) {
        sc.schedule_in(SimDuration::from_nanos(1), reschedule);
    }
    sim.schedule(SimTime::ZERO, reschedule);
    match sim.run() {
        Err(SimError::EventBudgetExhausted { executed }) => assert_eq!(executed, 100),
        other => panic!("expected budget error, got {other:?}"),
    }
}

#[test]
fn max_time_stops_the_run() {
    let mut sim = Sim::new();
    sim.set_max_time(SimTime::from_nanos(50));
    sim.spawn("late", |mut ctx| async move {
        ctx.sleep(SimDuration::from_nanos(200)).await;
        panic!("must not run past the horizon");
    });
    let report = sim.run().unwrap();
    assert!(report.stopped);
    assert!(report.final_time <= SimTime::from_nanos(200));
}

#[test]
fn processes_spawned_from_events_run() {
    let mut sim = Sim::new();
    let flag = sim.shared_flag();
    let f2 = flag.clone();
    sim.schedule(SimTime::from_nanos(10), move |sc| {
        let f3 = f2.clone();
        sc.spawn("child", move |mut ctx| async move {
            ctx.sleep(SimDuration::from_nanos(5)).await;
            f3.set();
        });
    });
    let report = sim.run().unwrap();
    assert!(flag.get());
    assert_eq!(report.final_time, SimTime::from_nanos(15));
}

#[test]
fn identical_runs_produce_identical_reports() {
    fn run_once() -> (u64, u64) {
        let mut sim = Sim::new();
        for i in 0..10u64 {
            sim.spawn(format!("p{i}"), move |mut ctx| async move {
                for k in 0..5 {
                    ctx.sleep(SimDuration::from_nanos(1 + (i * 7 + k) % 13))
                        .await;
                }
            });
        }
        let report = sim.run().unwrap();
        (report.final_time.as_nanos(), report.events_executed)
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn trace_collects_lifecycle_events() {
    let mut sim = Sim::new();
    sim.enable_trace();
    let p = sim.spawn("traced", |mut ctx| async move {
        ctx.sleep(SimDuration::from_nanos(3)).await
    });
    sim.schedule(SimTime::from_nanos(1), move |sc| {
        sc.trace("test", Some(p), || "hello".to_string());
    });
    let report = sim.run().unwrap();
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e.kind, ftmpi_sim::TraceKind::Spawn)));
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e.kind, ftmpi_sim::TraceKind::Model("test")) && e.detail == "hello"));
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e.kind, ftmpi_sim::TraceKind::Exit)));
}

#[test]
fn many_processes_scale() {
    let mut sim = Sim::new();
    let counter = Rc::new(RefCell::new(0u64));
    for i in 0..600 {
        let c = Rc::clone(&counter);
        sim.spawn(format!("w{i}"), move |mut ctx| async move {
            ctx.sleep(SimDuration::from_nanos(i)).await;
            *c.borrow_mut() += 1;
        });
    }
    sim.run().unwrap();
    assert_eq!(*counter.borrow_mut(), 600);
}

/// Coroutine processes cost no OS thread: 50k sleepers complete on the
/// kernel's own thread (the scale_bench binary exercises the full
/// 10⁵-rank workload).
#[test]
fn kernel_hosts_tens_of_thousands_of_processes() {
    let mut sim = Sim::new();
    let counter = Rc::new(RefCell::new(0u64));
    for i in 0..50_000u64 {
        let c = Rc::clone(&counter);
        sim.spawn(format!("w{i}"), move |mut ctx| async move {
            ctx.sleep(SimDuration::from_nanos(1 + i % 97)).await;
            *c.borrow_mut() += 1;
        });
    }
    sim.run().unwrap();
    assert_eq!(*counter.borrow_mut(), 50_000);
}

/// Kill/respawn churn: pids stay sequential and are never reused, killed
/// pids keep resolving (as not-alive) instead of aliasing later processes,
/// and replacements spawned after kills get fresh slots. This is the access
/// pattern the dense process table must support.
#[test]
fn kill_respawn_churn_keeps_pids_distinct() {
    let mut sim = Sim::new();
    let finished: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let mut pids = Vec::new();
    for i in 0..8u64 {
        let f = Rc::clone(&finished);
        pids.push(sim.spawn(format!("gen0-{i}"), move |mut ctx| async move {
            ctx.sleep(SimDuration::from_secs(10)).await;
            f.borrow_mut().push(i);
        }));
    }
    // Allocation is strictly increasing (pids are sequential, never reused).
    assert!(pids.windows(2).all(|w| w[0] < w[1]));

    // Kill the odd pids mid-run, then spawn replacements from the event;
    // their pids must continue the sequence, not reuse the dead slots.
    let victims: Vec<_> = pids.iter().copied().skip(1).step_by(2).collect();
    let survivors: Vec<_> = pids.iter().copied().step_by(2).collect();
    let v2 = victims.clone();
    let f = Rc::clone(&finished);
    sim.schedule(SimTime::from_nanos(5), move |sc| {
        for pid in &v2 {
            assert!(sc.is_alive(*pid));
            sc.kill(*pid);
            sc.kill(*pid); // double kill must stay a no-op
        }
        for (k, pid) in v2.iter().enumerate() {
            let f = f.clone();
            let new = sc.spawn(format!("gen1-{k}"), move |mut ctx| async move {
                ctx.sleep(SimDuration::from_secs(1)).await;
                f.borrow_mut().push(100 + k as u64);
            });
            assert!(new > *pid, "pid {new} reused or preceded {pid}");
        }
    });
    let report = sim.run().unwrap();
    for pid in &victims {
        let exit = report
            .exits
            .iter()
            .find(|(p, _, _)| p == pid)
            .map(|(_, _, e)| e.clone());
        assert_eq!(exit, Some(ProcessExit::Killed), "{pid}");
    }
    for pid in &survivors {
        let exit = report
            .exits
            .iter()
            .find(|(p, _, _)| p == pid)
            .map(|(_, _, e)| e.clone());
        assert_eq!(exit, Some(ProcessExit::Normal), "{pid}");
    }
    let mut done = finished.borrow_mut().clone();
    done.sort_unstable();
    assert_eq!(done, vec![0, 2, 4, 6, 100, 101, 102, 103]);
}

/// Killing with tracing disabled takes the lock-free fast path; killing with
/// tracing enabled must still record the event. Both paths must agree on
/// semantics.
#[test]
fn kill_traces_only_when_tracing_enabled() {
    for tracing in [false, true] {
        let mut sim = Sim::new();
        if tracing {
            sim.enable_trace();
        }
        let victim = sim.spawn("victim", |mut ctx| async move {
            ctx.sleep(SimDuration::from_secs(5)).await
        });
        sim.schedule(SimTime::from_nanos(3), move |sc| sc.kill(victim));
        let report = sim.run().unwrap();
        let kills = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, ftmpi_sim::TraceKind::Kill))
            .count();
        assert_eq!(kills, usize::from(tracing));
        assert!(report
            .exits
            .iter()
            .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
    }
}

#[test]
fn max_time_never_advances_past_the_horizon() {
    let mut sim = Sim::new();
    sim.set_max_time(SimTime::from_nanos(50));
    sim.schedule(SimTime::from_nanos(200), |_sc| {
        panic!("must not run past the horizon");
    });
    let report = sim.run().unwrap();
    assert!(report.stopped);
    assert!(
        report.final_time <= SimTime::from_nanos(50),
        "clock advanced past max_time: {:?}",
        report.final_time
    );
}

/// A wake and a kill landing at the same instant on one process: the wake
/// pops first (same lane, scheduling order), the process suspends again,
/// and the kill then drops it before its next sleep completes.
#[test]
fn same_time_wake_and_kill_kills_at_that_instant() {
    let mut sim = Sim::new();
    let victim = sim.spawn("victim", |mut ctx| async move {
        ctx.sleep(SimDuration::from_secs(5)).await;
        ctx.sleep(SimDuration::from_secs(10)).await;
        unreachable!("killed at 5s");
    });
    // Route the kill through a t=1s hop so its 5s call is pushed *after*
    // the sleeper's completion call: at 5s the sleep wake is queued first,
    // then the Killed resume lands right behind it on the same lane.
    sim.schedule(SimTime::from_nanos(1_000_000_000), move |sc| {
        sc.schedule_in(SimDuration::from_secs(4), move |sc| sc.kill(victim));
    });
    let report = sim.run().unwrap();
    assert!(report
        .exits
        .iter()
        .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
    assert_eq!(report.final_time, SimTime::from_nanos(5_000_000_000));
}

/// Drive one mixed workload (sleep chains, kills at degenerate instants)
/// and compare every observable of the run report against the golden
/// tuple.
#[test]
fn mixed_workload_report_matches_golden() {
    fn run() -> (u64, u64, Vec<(String, ProcessExit)>, usize) {
        let mut sim = Sim::new();
        sim.enable_trace();
        let log: Rc<RefCell<Vec<(String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for (name, step) in [("a", 3u64), ("b", 5u64), ("c", 7u64)] {
            let log = Rc::clone(&log);
            sim.spawn(name, move |mut ctx| async move {
                for _ in 0..4 {
                    ctx.sleep(SimDuration::from_secs(step)).await;
                    log.borrow_mut()
                        .push((ctx.name().to_string(), ctx.now().as_nanos()));
                }
            });
        }
        let victim = sim.spawn("victim", |mut ctx| async move {
            ctx.sleep(SimDuration::from_secs(60)).await;
        });
        // Kill lands at the exact instant of a's second sleep completion.
        sim.schedule(SimTime::from_nanos(6_000_000_000), move |sc| {
            sc.kill(victim)
        });
        let report = sim.run().unwrap();
        let exits = report
            .exits
            .iter()
            .map(|(_, n, e)| (n.clone(), e.clone()))
            .collect();
        (
            report.final_time.as_nanos(),
            report.events_executed,
            exits,
            report.trace.len(),
        )
    }
    let killed = ProcessExit::Killed;
    let normal = ProcessExit::Normal;
    assert_eq!(
        run(),
        (
            28_000_000_000,
            30,
            vec![
                ("victim".to_string(), killed),
                ("a".to_string(), normal.clone()),
                ("b".to_string(), normal.clone()),
                ("c".to_string(), normal),
            ],
            9,
        )
    );
}

/// Kill delivered while the process is suspended mid-`exec` (its model call
/// already queued but not yet run): the pending call must be cancelled and
/// the exit recorded at the kill instant.
#[test]
fn kill_during_suspension_cancels_pending_exec() {
    fn run() -> (u64, u64, bool) {
        let mut sim = Sim::new();
        let side_effect = sim.shared_flag();
        let fx = side_effect.clone();
        let victim = sim.spawn("victim", move |mut ctx| async move {
            // Suspend on an exec whose model call runs far in the future;
            // the kill arrives first, so the call must never run.
            ctx.advance(SimDuration::from_secs(100));
            ctx.exec::<(), _>(move |sc, reply| {
                fx.set();
                reply.complete(sc, ());
            })
            .await;
        });
        sim.schedule(SimTime::from_nanos(10), move |sc| sc.kill(victim));
        let report = sim.run().unwrap();
        let killed = report
            .exits
            .iter()
            .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed);
        assert!(killed);
        (
            report.final_time.as_nanos(),
            report.events_executed,
            side_effect.get(),
        )
    }
    // (final time, events executed, side effect observed): the clock stops
    // at the kill and the cancelled call never runs.
    assert_eq!(run(), (10, 3, false));
}

/// A process killed before its first wake (spawned at a later start time)
/// never starts; the replacement spawned in the same event sequence runs to
/// completion — the restart-while-embryonic state transition.
#[test]
fn kill_before_first_wake_drops_the_unstarted_process() {
    fn run() -> (u64, bool, bool) {
        let mut sim = Sim::new();
        let started = sim.shared_flag();
        let replaced = sim.shared_flag();
        let s2 = started.clone();
        let victim = sim.spawn_at(
            SimTime::from_nanos(100),
            "late-starter",
            move |mut ctx| async move {
                s2.set();
                ctx.sleep(SimDuration::from_nanos(1)).await;
            },
        );
        let r2 = replaced.clone();
        sim.schedule(SimTime::from_nanos(10), move |sc| {
            sc.kill(victim);
            sc.spawn("replacement", move |mut ctx| async move {
                ctx.sleep(SimDuration::from_nanos(5)).await;
                r2.set();
            });
        });
        let report = sim.run().unwrap();
        assert!(report
            .exits
            .iter()
            .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
        (report.events_executed, started.get(), replaced.get())
    }
    // (events executed, victim started, replacement finished).
    let (events, started, replaced) = run();
    assert!(!started, "killed-before-start process must never run");
    assert!(replaced, "replacement must complete");
    assert_eq!(events, 5);
}

/// Counts how many times a process's future-held local is dropped, and
/// records the kernel-visible instant of the (last) drop.
struct DropGuard {
    drops: Rc<RefCell<Vec<u64>>>,
    clock: Rc<RefCell<u64>>,
}

impl Drop for DropGuard {
    fn drop(&mut self) {
        let at = *self.clock.borrow_mut();
        self.drops.borrow_mut().push(at);
    }
}

/// A kill while suspended drops the process's future — and so every live
/// local in it — exactly once, at the kill instant, before any later event
/// runs.
#[test]
fn kill_while_suspended_drops_locals_once_at_the_kill_instant() {
    let mut sim = Sim::new();
    let drops: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    // Mirror of the kernel clock, advanced by the model events below.
    let clock = Rc::new(RefCell::new(0u64));
    let guard = DropGuard {
        drops: Rc::clone(&drops),
        clock: Rc::clone(&clock),
    };
    let victim = sim.spawn("victim", move |mut ctx| async move {
        let _guard = guard;
        ctx.sleep(SimDuration::from_secs(100)).await;
        unreachable!("killed while suspended");
    });
    let c = Rc::clone(&clock);
    sim.schedule(SimTime::from_nanos(40), move |sc| {
        *c.borrow_mut() = sc.now().as_nanos();
        sc.kill(victim);
    });
    let (c, d) = (Rc::clone(&clock), Rc::clone(&drops));
    sim.schedule(SimTime::from_nanos(41), move |sc| {
        *c.borrow_mut() = sc.now().as_nanos();
        assert_eq!(*d.borrow_mut(), vec![40], "future not dropped at the kill");
    });
    let report = sim.run().unwrap();
    assert_eq!(
        *drops.borrow_mut(),
        vec![40],
        "locals dropped more than once"
    );
    assert!(report
        .exits
        .iter()
        .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
}

/// Teardown under `set_max_time` drops the futures of processes still
/// parked at the horizon (started and unstarted alike), each exactly once,
/// and records them as killed.
#[test]
fn teardown_at_the_horizon_drops_parked_futures() {
    let mut sim = Sim::new();
    sim.set_max_time(SimTime::from_nanos(1_000));
    let drops: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let clock = Rc::new(RefCell::new(0u64));
    for i in 0..3u64 {
        let guard = DropGuard {
            drops: Rc::clone(&drops),
            clock: Rc::clone(&clock),
        };
        sim.spawn(format!("parked{i}"), move |mut ctx| async move {
            let _guard = guard;
            ctx.sleep(SimDuration::from_secs(1 + i)).await;
            unreachable!("runs past the horizon");
        });
    }
    // Spawned past the horizon: never started, its closure (and the guard
    // it captured) is dropped unstarted.
    let guard = DropGuard {
        drops: Rc::clone(&drops),
        clock: Rc::clone(&clock),
    };
    sim.spawn_at(SimTime::from_nanos(5_000), "late", move |_ctx| async move {
        let _guard = guard;
        unreachable!("starts past the horizon");
    });
    let c = Rc::clone(&clock);
    sim.schedule(SimTime::from_nanos(1_000), move |sc| {
        *c.borrow_mut() = sc.now().as_nanos();
    });
    let report = sim.run().unwrap();
    assert!(report.stopped);
    assert_eq!(*drops.borrow_mut(), vec![1_000; 4]);
    let killed = report
        .exits
        .iter()
        .filter(|(_, _, e)| *e == ProcessExit::Killed)
        .count();
    assert_eq!(killed, 4);
}
