//! Chunked background flows: checkpoint images and message logs streamed to
//! the checkpoint servers.
//!
//! A flow transfers `bytes` from one node to another in chunks; each chunk
//! is a separate network reservation, so MPI messages interleave with the
//! stream on the shared NICs — the fair-sharing behaviour behind Fig. 5's
//! server-scaling result and the Pcl contention discussion. When
//! `also_disk` is set the flow simultaneously writes the local disk file
//! (clone writing + daemon pipelining read→send), and each chunk completes
//! at the slower of the two.
//!
//! All entry points take the runtime of a world the caller already holds
//! locked (the lock is not reentrant): starting a stream only reserves and
//! schedules. Later chunks re-acquire the lock from their scheduled events
//! and hand the whole world to the completion hooks.
//!
//! ## Network faults
//!
//! Every chunk (and every control message) checks
//! [`reachable`](ftmpi_net::NetModel::reachable) before reserving the path.
//! An unreachable destination *pauses* the flow — the chunk is not dropped;
//! a backoff probe re-checks with capped exponential delays
//! ([`FlowRetry`]), counting `rt.stats.link_retries`. Plain flows and
//! control messages retry until the fault clears (a TCP stream blocked by
//! a partition just stalls); [`start_flow_guarded`] flows carry an attempt
//! budget and surrender to an `on_fail` hook when it runs out (checkpoint
//! pushes fall back to the next replica server). With no scheduled faults
//! `reachable` is always true and every code path is byte-identical to the
//! fault-free model.

use ftmpi_mpi::{RuntimeCore, World};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimDuration, SimTime};

use crate::config::FtConfig;

/// Parameters of one background flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total bytes to move.
    pub bytes: u64,
    /// Chunk granularity.
    pub chunk: u64,
    /// Mirror the stream to the source node's local disk.
    pub also_disk: bool,
}

type DoneFn = Box<dyn FnOnce(&mut World, &SimCtx, SimTime) + Send>;
type FailFn = Box<dyn FnOnce(&mut World, &SimCtx) + Send>;
type ArrivalFn = Box<dyn FnOnce(&mut World, &SimCtx) + Send>;

/// `false` when `FTMPI_NO_BATCH` is set: flow transfers schedule one event
/// per chunk instead of coalescing contention-free chunk runs. Batching only
/// swallows completions no other event could observe, so results are
/// byte-identical either way; the toggle exists for CI to prove exactly
/// that. Read once per process.
fn batching_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("FTMPI_NO_BATCH").is_none())
}

/// Tiebreak-lane namespace for flow-chunk events, disjoint from process
/// lanes by the high bit (a collision would only merge lanes, which is
/// always safe — it can only *preserve* more order).
const FLOW_LANE_BASE: u64 = 1 << 63;

/// Lane shared by every flow converging on `dst`: concurrent checkpoint
/// streams contend FIFO for the destination server's ingest queue, so the
/// order of their same-instant chunk reservations is arbitration state that
/// a perturbation seed must not scramble (it would swap which rank's image
/// lands last and move the wave-commit instant). Retry probes aimed at
/// `dst` share the lane, so a probe landing on the same instant as a
/// scheduled fault transition keeps a deterministic canonical order.
pub(crate) fn flow_lane(dst: NodeId) -> u64 {
    FLOW_LANE_BASE | dst.0 as u64
}

/// Backoff policy a flow applies while its destination is unreachable.
#[derive(Debug, Clone, Copy)]
pub struct FlowRetry {
    /// Delay before the first probe; doubles per consecutive failure.
    pub base: SimDuration,
    /// Ceiling on the doubled delay.
    pub cap: SimDuration,
    /// Consecutive failed probes before the flow gives up (`None`: retry
    /// until the fault clears — the pure pause semantic).
    pub limit: Option<u32>,
}

impl FlowRetry {
    /// The unbounded pause policy with the default backoff constants,
    /// used by control messages which have no per-job config in scope.
    /// Matches the `FtConfig` defaults.
    pub const PAUSE: FlowRetry = FlowRetry {
        base: SimDuration::from_millis(50),
        cap: SimDuration::from_secs(2),
        limit: None,
    };

    /// Bounded policy from the job's retry knobs: after
    /// `link_retry_limit` consecutive failures the flow's `on_fail` hook
    /// fires.
    pub fn bounded(cfg: &FtConfig) -> FlowRetry {
        FlowRetry {
            base: cfg.link_retry_base,
            cap: cfg.link_retry_cap,
            limit: Some(cfg.link_retry_limit),
        }
    }

    /// Unbounded policy with the job's backoff constants.
    pub fn unbounded(cfg: &FtConfig) -> FlowRetry {
        FlowRetry {
            limit: None,
            ..FlowRetry::bounded(cfg)
        }
    }

    /// Delay before 0-based probe `attempt`: `base · 2^attempt`, capped.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let base = self.base.max(SimDuration::from_nanos(1));
        (base * (1u64 << attempt.min(32))).min(self.cap.max(base))
    }
}

/// Start a flow; `on_done(world, sc, finish_time)` runs when the last chunk
/// lands. The flow aborts silently if the job epoch changes (a
/// failure-restart) — exactly like a TCP stream dying with its process.
///
/// The first chunk is deferred by a per-source-node nanosecond stagger
/// rather than reserved synchronously: checkpoint forks of several ranks
/// can land on the same virtual instant, and without the stagger the order
/// in which their streams hit the shared server queue would be whatever
/// order the fork events happened to execute in — an accident of
/// scheduling that a tiebreak perturbation seed would scramble, swapping
/// which rank's image lands last. The stagger (≤ a few ns against multi-ms
/// transfers) makes the arbitration a deterministic function of the
/// platform, not of the schedule.
pub fn start_flow(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    spec: FlowSpec,
    on_done: impl FnOnce(&mut World, &SimCtx, SimTime) + Send + 'static,
) {
    start_flow_inner(rt, sc, spec, FlowRetry::PAUSE, None, Box::new(on_done));
}

/// Like [`start_flow`], but with an explicit retry budget: when the
/// destination stays unreachable for `retry.limit` consecutive probes the
/// flow surrenders and `on_fail(world, sc)` runs instead of `on_done`
/// (checkpoint pushes use this to fall back to the next replica server).
pub fn start_flow_guarded(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    spec: FlowSpec,
    retry: FlowRetry,
    on_fail: impl FnOnce(&mut World, &SimCtx) + Send + 'static,
    on_done: impl FnOnce(&mut World, &SimCtx, SimTime) + Send + 'static,
) {
    start_flow_inner(
        rt,
        sc,
        spec,
        retry,
        Some(Box::new(on_fail)),
        Box::new(on_done),
    );
}

fn start_flow_inner(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    spec: FlowSpec,
    retry: FlowRetry,
    on_fail: Option<FailFn>,
    on_done: DoneFn,
) {
    let epoch = rt.epoch;
    // The per-source nanosecond stagger plus the destination lane are what
    // keep same-instant flow starts on one server deterministically
    // arbitrated; the `UnstaggeredFlows` regression fixture removes both to
    // re-open the arbitration race for the schedule explorer.
    let raced = rt.race_fixture == Some(ftmpi_mpi::RaceFixture::UnstaggeredFlows);
    let at = if raced {
        sc.now()
    } else {
        sc.now() + SimDuration::from_nanos(spec.src.0 as u64)
    };
    let handle = rt.world_handle();
    let lane = if raced {
        None
    } else {
        Some(flow_lane(spec.dst))
    };
    sc.schedule_keyed(at, lane, move |sc| {
        let Some(strong) = handle.upgrade() else {
            return;
        };
        let mut w = strong.lock();
        if w.rt.epoch != epoch {
            return; // the failure beat the stream's first byte
        }
        advance_chunk(&mut w, sc, spec, 0, epoch, retry, 0, on_fail, on_done);
    });
}

#[allow(clippy::too_many_arguments)] // private recursion carrying flow state
fn advance_chunk(
    w: &mut World,
    sc: &SimCtx,
    spec: FlowSpec,
    sent: u64,
    epoch: u64,
    retry: FlowRetry,
    attempt: u32,
    on_fail: Option<FailFn>,
    on_done: DoneFn,
) {
    if sent >= spec.bytes {
        let now = sc.now();
        on_done(w, sc, now);
        return;
    }
    let handle = w.rt.world_handle();
    let lane = Some(flow_lane(spec.dst));
    // Bulk flows model a reliable stream: each chunk needs the data path
    // *and* the acknowledgement path back. Under a one-directional cut the
    // sender's window closes — data may physically arrive but nothing is
    // committed, so the stream stalls exactly like a full cut and no chunk
    // is double-sent when the cut heals.
    if !w.rt.net.reachable(spec.src, spec.dst) || !w.rt.net.reachable(spec.dst, spec.src) {
        // Paused by a link fault or partition: nothing is dropped, the
        // stream just stalls. Probe again after a capped exponential
        // backoff — or surrender to `on_fail` once the budget is spent.
        if let Some(limit) = retry.limit {
            if attempt >= limit {
                if let Some(f) = on_fail {
                    f(w, sc);
                }
                return;
            }
        }
        w.rt.stats.link_retries += 1;
        let probe_at = sc.now() + retry.delay(attempt);
        sc.schedule_keyed(probe_at, lane, move |sc| {
            let Some(strong) = handle.upgrade() else {
                return;
            };
            let mut w = strong.lock();
            if w.rt.epoch != epoch {
                return;
            }
            advance_chunk(
                &mut w,
                sc,
                spec,
                sent,
                epoch,
                retry,
                attempt + 1,
                on_fail,
                on_done,
            );
        });
        return;
    }
    // Reserve this chunk — and, with batching on, keep reserving inline for
    // as long as the unbatched kernel would have done nothing else anyway.
    // The unbatched loop schedules one completion event per chunk; when that
    // event is strictly the earliest thing in the queue, its handler runs
    // with exactly the model state visible here (nothing else executed in
    // between, so reachability, the epoch, and every queue frontier are
    // unchanged), and its reservation call `transfer(src, dst, len, done)`
    // is replicated bit-for-bit by passing the previous completion time as
    // `earliest`. Each swallowed completion is credited back to the event
    // count so run reports — which feed calibration fingerprints — stay
    // identical. The fast-forward stops at the first chunk whose completion
    // is *not* strictly earliest (ties included: tiebreak order among
    // same-time events must stay the kernel's call), at the stop horizon
    // (the unbatched kernel halts on, without consuming, the first event
    // past it), and before the final chunk (`on_done` must observe its
    // completion as a real event time).
    let batching = batching_enabled();
    let mut sent = sent;
    let mut at = sc.now();
    let mut swallowed: u64 = 0;
    #[cfg(debug_assertions)]
    let mut touch_watch: Option<(u64, Option<u64>)> = None;
    let done = loop {
        let len = spec.chunk.max(1).min(spec.bytes - sent);
        let net_done = w.rt.net.transfer(spec.src, spec.dst, len, at).delivered;
        let done = if spec.also_disk {
            let disk_done = w.rt.net.disk_write(spec.src, len, at);
            net_done.max(disk_done)
        } else {
            net_done
        };
        sent += len;
        #[cfg(debug_assertions)]
        {
            // The batching argument made manifest: within one quiescent
            // window every chunk bumps the path's contention counters by
            // exactly the same amount, because no competing reservation can
            // interleave. (Measured as consecutive per-chunk deltas so the
            // check is independent of traffic before the window.)
            let now_touches = w.rt.net.path_touches(spec.src, spec.dst);
            if let Some((prev_touches, prev_delta)) = touch_watch {
                let delta = now_touches - prev_touches;
                if let Some(expect) = prev_delta {
                    debug_assert_eq!(
                        delta, expect,
                        "competing reservation interleaved a batched flow window"
                    );
                }
                touch_watch = Some((now_touches, Some(delta)));
            } else {
                touch_watch = Some((now_touches, None));
            }
        }
        let quiescent = batching
            && sent < spec.bytes
            && sc.next_event_time().is_none_or(|t| t > done)
            && sc.horizon().is_none_or(|mt| done <= mt);
        if !quiescent {
            break done;
        }
        swallowed += 1;
        at = done;
    };
    if swallowed > 0 {
        sc.credit_virtual_events(swallowed);
    }
    sc.schedule_keyed(done, lane, move |sc| {
        let Some(strong) = handle.upgrade() else {
            return;
        };
        let mut w = strong.lock();
        if w.rt.epoch != epoch {
            return; // stream died with the failure
        }
        // A delivered chunk proves the link: the next stall starts a
        // fresh backoff ladder.
        advance_chunk(&mut w, sc, spec, sent, epoch, retry, 0, on_fail, on_done);
    });
}

/// One-shot control message between protocol endpoints (markers from the
/// checkpoint scheduler, acknowledgements, commit notifications). Delivered
/// through the network model with an epoch guard. `lane` is the tiebreak
/// lane of the arrival event — pass the destination process's lane when the
/// message races same-time traffic to one rank (scheduler markers), `None`
/// for order-insensitive sinks (ack and report counters).
pub fn send_control(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    lane: Option<u64>,
    on_arrival: impl FnOnce(&mut World, &SimCtx) + Send + 'static,
) {
    send_control_attempt(rt, sc, src, dst, bytes, lane, 0, Box::new(on_arrival));
}

/// One delivery attempt of a control message. While the destination is
/// unreachable the message waits — heartbeats and markers blocked by a
/// partition arrive late rather than never — re-probing with the default
/// unbounded backoff ([`FlowRetry::PAUSE`]).
#[allow(clippy::too_many_arguments)] // private recursion carrying retry state
fn send_control_attempt(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    lane: Option<u64>,
    attempt: u32,
    on_arrival: ArrivalFn,
) {
    let epoch = rt.epoch;
    let handle = rt.world_handle();
    if !rt.net.reachable(src, dst) {
        rt.stats.link_retries += 1;
        let probe_at = sc.now() + FlowRetry::PAUSE.delay(attempt);
        // Probes keep the caller's lane: a retried marker still races the
        // same per-rank traffic it raced on first emission.
        sc.schedule_keyed(probe_at, lane, move |sc| {
            let Some(strong) = handle.upgrade() else {
                return;
            };
            let mut w = strong.lock();
            if w.rt.epoch != epoch {
                return;
            }
            send_control_attempt(
                &mut w.rt,
                sc,
                src,
                dst,
                bytes,
                lane,
                attempt + 1,
                on_arrival,
            );
        });
        return;
    }
    let at = rt.net.transfer(src, dst, bytes, sc.now()).delivered;
    sc.schedule_keyed(at, lane, move |sc| {
        let Some(strong) = handle.upgrade() else {
            return;
        };
        let mut w = strong.lock();
        if w.rt.epoch != epoch {
            return;
        }
        on_arrival(&mut w, sc);
    });
}
