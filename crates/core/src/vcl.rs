//! Vcl: the **non-blocking** coordinated checkpointing protocol
//! (MPICH-Vcl) — a direct implementation of the Chandy–Lamport
//! distributed-snapshot algorithm for MPI computations.
//!
//! Roles (§3 and §4.1 of the paper):
//!
//! * a dedicated **checkpoint scheduler** process initiates waves by
//!   sending a marker to every MPI process;
//! * on its first marker of a wave, a rank's daemon records the local state
//!   (the MPI process forks and its image streams to a checkpoint server
//!   while computation continues), then sends a marker on every channel;
//! * every application message received after the local checkpoint and
//!   before the sender's marker is **logged** as the channel's state and
//!   also shipped to the server;
//! * once a rank holds every marker and its image + log are stored, it
//!   acknowledges the scheduler, which commits the wave after collecting
//!   all acknowledgements — and only then arms the timer for the next wave.
//!
//! Communication is *never* interrupted; the cost is the per-message daemon
//! indirection (modelled by the `VclDaemon` software stack) plus log
//! traffic, in exchange for checkpoint transfers that overlap computation.
//!
//! The server fleet, image streaming and commit are the shared
//! [`Coordinated`] machinery.

use ftmpi_mpi::{AppMsg, ArrivalAction, Protocol, Rank, RankStatus, RuntimeCore, SendAction};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::engine::{marker_lane, push, with, CheckpointEngine, Coordinated, Fallback, Landing};
use crate::flow::{send_control, start_flow, FlowSpec};
use crate::image::{RankImage, WaveRecord};
use crate::stats::FtStats;

/// `true` when `FTMPI_DEBUG` is set: image captures and wave commits dump
/// their message sequence numbers to stderr. Read once per process.
fn debug_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var("FTMPI_DEBUG").is_ok())
}

/// In-flight wave state.
struct VclWave {
    rec: WaveRecord,
    /// Rank has recorded its local checkpoint this wave.
    started: Vec<bool>,
    /// `marker_from[dst][src]`: channel marker received.
    marker_from: Vec<Vec<bool>>,
    /// Markers still missing per rank.
    markers_missing: Vec<usize>,
    /// Image fully stored on the server.
    image_done: Vec<bool>,
    /// All channel markers received (log closed).
    channels_closed: Vec<bool>,
    /// Log fully stored (or empty).
    log_done: Vec<bool>,
    /// Acknowledgement sent to the scheduler.
    acked: Vec<bool>,
    /// Acknowledgements received by the scheduler.
    acks: usize,
    /// Replica image streams still in flight, per rank.
    image_flows_left: Vec<usize>,
}

impl VclWave {
    fn new(wave: u64, n: usize, started_at: SimTime) -> VclWave {
        VclWave {
            rec: WaveRecord::new(wave, n, started_at),
            started: vec![false; n],
            marker_from: (0..n).map(|_| vec![false; n]).collect(),
            markers_missing: vec![n - 1; n],
            image_done: vec![false; n],
            channels_closed: vec![n == 1; n],
            // A solo job has no channels, hence no channel state to ship.
            log_done: vec![n == 1; n],
            acked: vec![false; n],
            acks: 0,
            image_flows_left: vec![0; n],
        }
    }
}

/// The non-blocking protocol engine. Implements [`Protocol`] for the
/// runtime hooks and drives waves through self-scheduled events.
pub struct Vcl {
    co: Coordinated,
    /// Node hosting the checkpoint scheduler.
    scheduler_node: NodeId,
    cur: Option<VclWave>,
}

impl Vcl {
    /// Build the engine for a deployment.
    pub fn new(cfg: FtConfig, dep: &Deployment) -> Vcl {
        Vcl {
            co: Coordinated::new(cfg, dep),
            scheduler_node: dep.service_node,
            cur: None,
        }
    }

    /// A rank's daemon starts its local checkpoint (first marker of the
    /// wave, from the scheduler or from a peer channel).
    fn start_local_ckpt(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, r: Rank, wave: u64) {
        if rt.ranks[r].status == RankStatus::Dead {
            // Undetected-dead rank (detection lag): its daemon died with the
            // task, so it cannot fork or forward markers. The wave stalls on
            // it and is aborted by the eventual restart.
            return;
        }
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        if cur.rec.wave != wave || cur.started[r] {
            return;
        }
        cur.started[r] = true;
        // Fork: the main process pauses for the CoW setup, then computation
        // continues while the clone streams the image.
        rt.add_penalty(r, self.co.cfg.fork_cost);
        let rs = &rt.ranks[r];
        let credit = rt.capture_credit(r, sc.now());
        if debug_enabled() {
            eprintln!(
                "[vcl] capture r{r} at {} ops={} pending_seqs={:?}",
                sc.now(),
                rs.ops_completed,
                rt.snapshot_pending(r)
                    .iter()
                    .map(|m| (m.src, m.seq))
                    .collect::<Vec<_>>()
            );
        }
        let ops = rs.ops_completed;
        cur.rec.images[r] = RankImage {
            ops_completed: ops,
            time_credit: credit,
            taken_at: sc.now(),
            pending: rt.snapshot_pending(r),
            expect_seq: Vec::new(), // coordinated: global restarts reset
            send_seq: Vec::new(),
        };
        let image_flows = self.co.image_flows(rt, r);
        cur.image_flows_left[r] = image_flows.len();
        let n = cur.started.len();
        sc.trace_proto(ftmpi_sim::ProtoEvent::Fork { wave, rank: r, ops });
        // Inject channel markers through the same network path as app
        // messages (per-channel FIFO is what Chandy–Lamport relies on).
        let handle = rt.world_handle();
        let epoch = rt.epoch;
        let src_node = rt.placement.node_of(r);
        let ctl_bytes = self.co.cfg.control_bytes;
        for s in (0..n).filter(|&s| s != r) {
            sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerSend {
                wave,
                from: r,
                to: s,
            });
            let penalty = rt.cfg.profile.message_penalty(ctl_bytes);
            let dst_node = rt.placement.node_of(s);
            let delivered = rt
                .net
                .transfer_with_overhead(src_node, dst_node, ctl_bytes, sc.now(), penalty)
                .delivered;
            let h = handle.clone();
            sc.schedule_keyed(delivered, marker_lane(rt, s), move |sc| {
                let Some(world) = h.upgrade() else { return };
                let mut w = world.lock();
                if w.rt.epoch != epoch {
                    return;
                }
                with(&mut w, |vcl: &mut Vcl, rt| {
                    vcl.on_channel_marker(rt, sc, r, s, wave);
                });
            });
        }
        for spec in image_flows {
            self.co.start_image_stream(rt, sc, spec, r, wave);
        }
    }

    /// Channel marker from `from` arrived at `to`.
    fn on_channel_marker(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        from: Rank,
        to: Rank,
        wave: u64,
    ) {
        // Receiving any marker starts the local checkpoint if needed.
        self.start_local_ckpt(rt, sc, to, wave);
        let Some(cur) = self.cur.as_mut() else {
            return self.maybe_ack(rt, sc, to, wave);
        };
        if cur.rec.wave != wave || cur.marker_from[to][from] {
            return self.maybe_ack(rt, sc, to, wave);
        }
        cur.marker_from[to][from] = true;
        cur.markers_missing[to] -= 1;
        let mut log_flow = None;
        if cur.markers_missing[to] == 0 {
            cur.channels_closed[to] = true;
            // Ship the logged channel state to the server.
            let bytes: u64 = cur.rec.logs[to].iter().map(|m| m.bytes.max(64)).sum();
            if bytes == 0 {
                cur.log_done[to] = true;
            } else {
                log_flow = Some(FlowSpec {
                    src: rt.placement.node_of(to),
                    dst: self.co.server_node_of[to],
                    bytes,
                    chunk: self.co.cfg.chunk_bytes,
                    also_disk: false,
                });
            }
        }
        sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerRecv { wave, from, to });
        let Some(spec) = log_flow else {
            return self.maybe_ack(rt, sc, to, wave);
        };
        let bytes = spec.bytes;
        start_flow(rt, sc, spec, move |w, sc, _| {
            with(w, |vcl: &mut Vcl, rt| {
                vcl.co.stats.log_bytes_sent += bytes;
                if let Some(cur) = vcl.cur.as_mut() {
                    if cur.rec.wave == wave {
                        cur.log_done[to] = true;
                    }
                }
                vcl.maybe_ack(rt, sc, to, wave);
            });
        });
    }

    /// Send the scheduler acknowledgement once image + channels + log are
    /// all complete for rank `r`.
    fn maybe_ack(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, r: Rank, wave: u64) {
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        if cur.rec.wave != wave
            || cur.acked[r]
            || !cur.image_done[r]
            || !cur.channels_closed[r]
            || !cur.log_done[r]
        {
            return;
        }
        cur.acked[r] = true;
        let src = rt.placement.node_of(r);
        let bytes = self.co.cfg.control_bytes;
        send_control(
            rt,
            sc,
            src,
            self.scheduler_node,
            bytes,
            None,
            move |w, sc| {
                with(w, |vcl: &mut Vcl, rt| vcl.on_ack(rt, sc, wave));
            },
        );
    }

    /// Scheduler: collect an acknowledgement; commit when all arrived.
    fn on_ack(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, wave: u64) {
        let n = rt.size();
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        if cur.rec.wave != wave {
            return;
        }
        cur.acks += 1;
        if cur.acks < n {
            return;
        }
        let Some(done) = self.cur.take() else {
            return;
        };
        if debug_enabled() {
            for (d, log) in done.rec.logs.iter().enumerate() {
                eprintln!(
                    "[vcl] wave {wave} log[{d}] seqs={:?}",
                    log.iter().map(|m| (m.src, m.seq)).collect::<Vec<_>>()
                );
            }
        }
        self.co.commit(rt, sc, done.rec);
    }
}

impl CheckpointEngine for Vcl {
    fn coordinated(&mut self) -> Option<&mut Coordinated> {
        Some(&mut self.co)
    }

    /// Scheduler: send a marker to every rank.
    fn begin_wave(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        if self.cur.is_some() || self.co.live_server_count() == 0 {
            return; // a wave is already in flight, or no servers survive
        }
        let n = rt.size();
        let wave = self.co.next_wave();
        self.cur = Some(VclWave::new(wave, n, sc.now()));
        sc.trace_proto(ftmpi_sim::ProtoEvent::WaveStart { wave });
        let ctl_bytes = self.co.cfg.control_bytes;
        for r in 0..n {
            let node = rt.placement.node_of(r);
            let lane = marker_lane(rt, r);
            send_control(
                rt,
                sc,
                self.scheduler_node,
                node,
                ctl_bytes,
                lane,
                move |w, sc| {
                    with(w, |vcl: &mut Vcl, rt| vcl.start_local_ckpt(rt, sc, r, wave));
                },
            );
        }
    }

    fn abort_wave(&mut self, sc: &SimCtx) -> bool {
        let Some(cur) = self.cur.take() else {
            return false;
        };
        self.co.wave_aborted(sc, cur.rec.wave);
        true
    }

    fn image_push_failed(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        r: Rank,
        wave: u64,
        spec: FlowSpec,
    ) {
        let push = self
            .cur
            .as_mut()
            .and_then(|cur| push(&cur.rec, &mut cur.image_flows_left, r, wave));
        if let Fallback::Abort = self.co.push_failed(rt, sc, push, r, wave, spec) {
            self.abort_and_rearm(rt, sc);
        }
    }

    /// The image is done once every replica landed.
    fn image_stored(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        r: Rank,
        wave: u64,
        server: NodeId,
        done_at: SimTime,
    ) {
        let push = self
            .cur
            .as_mut()
            .and_then(|cur| push(&cur.rec, &mut cur.image_flows_left, r, wave));
        match self.co.land_image(rt, sc, push, r, wave, server, done_at) {
            Landing::Stale => {}
            Landing::Stored { last } => {
                if let Some(cur) = self.cur.as_mut() {
                    cur.image_done[r] |= last;
                }
                self.maybe_ack(rt, sc, r, wave);
            }
            Landing::Dropped(spec) => self.image_push_failed(rt, sc, r, wave, spec),
        }
    }

    fn final_stats(&mut self) -> FtStats {
        self.co.final_stats(self.cur.as_ref().map(|c| c.rec.wave))
    }
}

impl Protocol for Vcl {
    fn name(&self) -> &'static str {
        "vcl"
    }

    fn on_runtime_entry(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {
        // Markers are handled asynchronously by the communication daemon;
        // nothing is deferred to library entry in the non-blocking protocol.
    }

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> SendAction {
        SendAction::Proceed // never blocks communication
    }

    fn on_arrival(&mut self, _rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        // Chandy–Lamport channel-state recording: log messages received
        // after the local checkpoint and before the sender's marker.
        if msg.src != msg.dst {
            if let Some(cur) = self.cur.as_mut() {
                if cur.started[msg.dst] && !cur.marker_from[msg.dst][msg.src] {
                    sc.trace_proto(ftmpi_sim::ProtoEvent::LogMsg {
                        wave: cur.rec.wave,
                        src: msg.src,
                        dst: msg.dst,
                        seq: msg.seq,
                    });
                    cur.rec.logs[msg.dst].push(msg.clone());
                    self.co.stats.msgs_logged += 1;
                }
            }
        }
        ArrivalAction::Deliver
    }

    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, _sc: &SimCtx, rank: Rank) {
        // Finished ranks keep their daemon: wave participation continues
        // through the event-driven paths above.
        debug_assert!(rt.ranks[rank].status != RankStatus::Dead);
    }
}
