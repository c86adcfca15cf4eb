//! Integration tests for the MPI runtime: p2p semantics, FIFO channels,
//! matching, nonblocking ops, collectives and NIC-sharing effects.

use std::sync::{Arc, Mutex};

use ftmpi_mpi::{
    app_fn, spawn_rank, AppFn, DummyProtocol, Placement, RuntimeConfig, RuntimeCore, World,
    WorldRef,
};
use ftmpi_net::{LinkConfig, NetModel, SoftwareStack, Topology};
use ftmpi_sim::{Sim, SimDuration, SimTime};

/// Run `app` on `nranks` ranks (one per node, GigE, TCP stack); returns the
/// job completion time and the world for post-run inspection.
fn run_app(nranks: usize, app: AppFn) -> (SimTime, WorldRef) {
    run_app_placed(nranks, nranks, false, app)
}

fn run_app_placed(
    nranks: usize,
    nodes: usize,
    two_per_node: bool,
    app: AppFn,
) -> (SimTime, WorldRef) {
    let topo = Topology::single_cluster(nodes, LinkConfig::gige());
    let placement = if two_per_node {
        Placement::two_per_node(&topo, nranks)
    } else {
        Placement::one_per_node(&topo, nranks)
    };
    let rt = RuntimeCore::new(
        NetModel::new(topo),
        placement,
        RuntimeConfig::for_stack(SoftwareStack::TcpSock),
    );
    let world = World::new_ref(rt, Box::new(DummyProtocol));
    let mut sim = Sim::new();
    let w2 = std::rc::Rc::clone(&world);
    sim.schedule(SimTime::ZERO, move |sc| {
        for r in 0..nranks {
            spawn_rank(sc, &w2, r, Arc::clone(&app));
        }
    });
    let report = sim.run().expect("simulation failed");
    let completion = world
        .borrow()
        .rt
        .stats
        .completion_time
        .expect("job did not complete");
    assert!(completion <= report.final_time);
    (completion, world)
}

#[test]
fn two_rank_ping_pong_round_trip_time() {
    let (t, world) = run_app(
        2,
        app_fn(|mut mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 7, 1000).await;
                mpi.recv(Some(1), Some(8)).await;
            } else {
                let info = mpi.recv(Some(0), Some(7)).await;
                assert_eq!(info.bytes, 1000);
                assert_eq!(info.src, 0);
                mpi.send(0, 8, 1000).await;
            }
            mpi
        }),
    );
    // Two one-way trips of a 1 kB message on GigE: dominated by 2×45 µs
    // latency plus overheads; must be far under a millisecond but nonzero.
    let secs = t.as_secs_f64();
    assert!(secs > 90e-6, "round trip too fast: {secs}");
    assert!(secs < 1e-3, "round trip too slow: {secs}");
    assert_eq!(world.borrow().rt.stats.msgs_sent, 2);
}

#[test]
fn bandwidth_matches_link_rate_for_large_messages() {
    let bytes = 125_000_000; // 1 s at GigE rate
    let (t, _) = run_app(
        2,
        app_fn(move |mut mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 0, bytes).await;
            } else {
                mpi.recv(Some(0), Some(0)).await;
            }
            mpi
        }),
    );
    let secs = t.as_secs_f64();
    // Two store-and-forward NIC stages → ≈2 s end-to-end.
    assert!((1.9..2.2).contains(&secs), "bandwidth off: {secs}");
}

#[test]
fn per_channel_fifo_order_is_preserved() {
    let (_, _) = run_app(
        2,
        app_fn(|mut mpi| async move {
            const N: i32 = 40;
            if mpi.rank() == 0 {
                for i in 0..N {
                    // Mixed sizes try to tempt overtaking.
                    let bytes = if i % 3 == 0 { 1 << 18 } else { 64 };
                    mpi.send(1, i, bytes).await;
                }
            } else {
                for i in 0..N {
                    // Wildcard tag: must observe sends in order.
                    let info = mpi.recv(Some(0), None).await;
                    assert_eq!(info.tag, i, "FIFO violated");
                }
            }
            mpi
        }),
    );
}

#[test]
fn unexpected_messages_are_buffered() {
    let (_, _) = run_app(
        2,
        app_fn(|mut mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 1, 10).await;
                mpi.send(1, 2, 20).await;
            } else {
                // Receive in the opposite tag order: matching must search the
                // unexpected queue, not just its head.
                mpi.compute(SimDuration::from_millis(10)); // let both arrive
                let b = mpi.recv(Some(0), Some(2)).await;
                assert_eq!(b.bytes, 20);
                let a = mpi.recv(Some(0), Some(1)).await;
                assert_eq!(a.bytes, 10);
            }
            mpi
        }),
    );
}

#[test]
fn wildcard_source_receive() {
    let (_, _) = run_app(
        3,
        app_fn(|mut mpi| async move {
            if mpi.rank() == 2 {
                let mut got = [false; 2];
                for _ in 0..2 {
                    let info = mpi.recv(None, Some(5)).await;
                    got[info.src] = true;
                }
                assert!(got[0] && got[1]);
            } else {
                mpi.send(2, 5, 100).await;
            }
            mpi
        }),
    );
}

#[test]
fn irecv_wait_overlaps_compute() {
    let (t, _) = run_app(
        2,
        app_fn(|mut mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 3, 125_000_000).await; // ~1 s wire time
            } else {
                let req = mpi.irecv(Some(0), Some(3)).await;
                mpi.compute(SimDuration::from_secs(2)); // overlaps the transfer
                let info = mpi.wait(req).await;
                assert_eq!(info.bytes, 125_000_000);
            }
            mpi
        }),
    );
    // Compute (2 s) overlaps the ~2 s transfer: total ≈ max, not sum.
    let secs = t.as_secs_f64();
    assert!(secs < 3.0, "no overlap: {secs}");
    assert!(secs >= 2.0);
}

#[test]
fn wait_after_completion_is_cheap() {
    let (_, _) = run_app(
        2,
        app_fn(|mut mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 0, 8).await;
            } else {
                let req = mpi.irecv(Some(0), Some(0)).await;
                mpi.compute(SimDuration::from_secs(1)); // message arrives meanwhile
                let before = mpi.wtime();
                mpi.wait(req).await;
                let after = mpi.wtime();
                assert!(after - before < 1e-3, "wait blocked: {}", after - before);
            }
            mpi
        }),
    );
}

#[test]
fn barrier_synchronizes_ranks() {
    let times: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let t2 = Arc::clone(&times);
    let (_, _) = run_app(
        8,
        app_fn(move |mut mpi| {
            let t2 = Arc::clone(&t2);
            async move {
                // Rank r computes r seconds, then all meet at a barrier.
                mpi.compute(SimDuration::from_secs(mpi.rank() as u64));
                mpi.barrier().await;
                t2.lock().expect("times poisoned").push(mpi.wtime());
                mpi
            }
        }),
    );
    let times = times.lock().expect("times poisoned");
    let min = times.iter().cloned().fold(f64::MAX, f64::min);
    let max = times.iter().cloned().fold(0.0, f64::max);
    assert!(min >= 7.0, "barrier exited before slowest rank: {min}");
    assert!(max - min < 0.01, "barrier skewed: {min}..{max}");
}

#[test]
fn collectives_complete_on_nonpowers_of_two() {
    for n in [3usize, 5, 6, 7, 9] {
        let (_, _) = run_app(
            n,
            app_fn(|mut mpi| async move {
                mpi.bcast(0, 4096).await;
                mpi.reduce(0, 4096).await;
                mpi.allreduce(4096).await;
                mpi.allgather(1024).await;
                mpi.alltoall(512).await;
                mpi.gather(0, 2048).await;
                mpi.scatter(0, 2048).await;
                mpi.barrier().await;
                mpi
            }),
        );
    }
}

#[test]
fn bcast_message_count_is_n_minus_one() {
    let (_, world) = run_app(
        16,
        app_fn(|mut mpi| async move {
            mpi.bcast(3, 1 << 20).await;
            mpi
        }),
    );
    assert_eq!(world.borrow().rt.stats.msgs_sent, 15);
}

#[test]
fn allreduce_recursive_doubling_message_count() {
    let (_, world) = run_app(
        8,
        app_fn(|mut mpi| async move {
            mpi.allreduce(1024).await;
            mpi
        }),
    );
    // log2(8)=3 rounds × 8 ranks, one send each.
    assert_eq!(world.borrow().rt.stats.msgs_sent, 24);
}

#[test]
fn nic_sharing_slows_colocated_ranks() {
    // 4 ranks exchanging big messages pairwise: with 2 ranks/node the pairs
    // share NICs and the exchange takes about twice as long.
    let app = app_fn(|mut mpi| async move {
        let n = mpi.size();
        let partner = (mpi.rank() + n / 2) % n;
        let tag = 9;
        mpi.sendrecv(partner, tag, 62_500_000, Some(partner), Some(tag))
            .await;
        mpi
    });
    let (t_separate, _) = run_app_placed(4, 4, false, Arc::clone(&app));
    let (t_shared, _) = run_app_placed(4, 2, true, app);
    let ratio = t_shared.as_secs_f64() / t_separate.as_secs_f64();
    assert!(ratio > 1.4, "NIC sharing should slow the exchange: {ratio}");
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let (t, world) = run_app(
            6,
            app_fn(|mut mpi| async move {
                mpi.allreduce(10_000).await;
                mpi.compute(SimDuration::from_millis(5));
                mpi.alltoall(2_000).await;
                mpi.barrier().await;
                mpi
            }),
        );
        let msgs = world.borrow().rt.stats.msgs_sent;
        (t.as_nanos(), msgs)
    };
    assert_eq!(run(), run());
}

#[test]
fn wtime_advances_with_compute() {
    let (_, _) = run_app(
        1,
        app_fn(|mut mpi| async move {
            let t0 = mpi.wtime();
            mpi.compute(SimDuration::from_secs(3));
            let t1 = mpi.wtime();
            assert!((t1 - t0 - 3.0).abs() < 1e-9);
            mpi
        }),
    );
}

#[test]
fn self_send_via_loopback() {
    let (t, _) = run_app(
        1,
        app_fn(|mut mpi| async move {
            let req = mpi.irecv(Some(0), Some(1)).await;
            mpi.send(0, 1, 1 << 20).await;
            let info = mpi.wait(req).await;
            assert_eq!(info.bytes, 1 << 20);
            mpi
        }),
    );
    assert!(t.as_secs_f64() < 0.01, "loopback too slow: {t}");
}

#[test]
fn larger_job_completes_with_many_ranks() {
    let (_, world) = run_app(
        64,
        app_fn(|mut mpi| async move {
            mpi.allreduce(8192).await;
            mpi.barrier().await;
            mpi
        }),
    );
    let w = world.borrow();
    assert_eq!(w.rt.stats.finished_ranks, 64);
}

#[test]
fn shift_moves_data_around_a_ring() {
    let (t, world) = run_app(
        4,
        app_fn(|mut mpi| async move {
            let n = mpi.size();
            let right = (mpi.rank() + 1) % n;
            let left = (mpi.rank() + n - 1) % n;
            for lap in 0..3 {
                let info = mpi.shift(right, left, lap, 10_000).await;
                assert_eq!(info.src, left);
                assert_eq!(info.bytes, 10_000);
            }
            mpi
        }),
    );
    // 3 laps × 4 ranks, one message each.
    assert_eq!(world.borrow().rt.stats.msgs_sent, 12);
    assert!(t.as_secs_f64() < 0.01);
}

#[test]
fn shift_equals_sendrecv_semantics() {
    // The fused op and the three-op sequence deliver the same messages.
    let run = |fused: bool| {
        let (t, world) = run_app(
            6,
            app_fn(move |mut mpi| async move {
                let n = mpi.size();
                let right = (mpi.rank() + 1) % n;
                let left = (mpi.rank() + n - 1) % n;
                for lap in 0..5 {
                    if fused {
                        mpi.shift(right, left, lap, 4_096).await;
                    } else {
                        mpi.sendrecv(right, lap, 4_096, Some(left), Some(lap)).await;
                    }
                }
                mpi
            }),
        );
        let msgs = world.borrow().rt.stats.msgs_sent;
        (t, msgs)
    };
    let (t_fused, m_fused) = run(true);
    let (t_slow, m_slow) = run(false);
    assert_eq!(m_fused, m_slow);
    // Same virtual timing up to the per-op overhead difference.
    assert!((t_fused.as_secs_f64() - t_slow.as_secs_f64()).abs() < 1e-3);
}

#[test]
fn exchange_is_symmetric() {
    let (_, _) = run_app(
        2,
        app_fn(|mut mpi| async move {
            let peer = 1 - mpi.rank();
            let info = mpi.exchange(peer, 7, 1 << 16).await;
            assert_eq!(info.src, peer);
            assert_eq!(info.bytes, 1 << 16);
            mpi
        }),
    );
}
