//! Pcl: the **blocking** coordinated checkpointing protocol (MPICH2-Pcl).
//!
//! The protocol synchronizes the processes to *empty the communication
//! layer* before images are taken, so no channel state needs saving
//! (§3 and §4.2 of the paper):
//!
//! * the MPI process of rank 0 periodically starts a wave and sends markers
//!   to every other process;
//! * on its first marker a process enters the `checkpointing` state and
//!   sends markers to every other process;
//! * after sending its markers a process **delays every send post** until
//!   its checkpoint is taken (MPICH2: the hook in the request-posting
//!   function; the delayed messages are part of the image and are sent
//!   again after a restart);
//! * after receiving a marker on a channel the process **delays receptions
//!   from that channel** (Nemesis: the delayed receive queue, discarded at
//!   restart because the sender re-sends);
//! * when a process holds every marker it forks, streams its image to the
//!   checkpoint server, releases its delayed queues and resumes; rank 0
//!   commits the wave once every process reports its image stored, and only
//!   then arms the next timer.
//!
//! Crucially, markers are only *processed* when the process is inside the
//! MPI library (its progress engine runs): a process deep in a compute
//! phase stalls the whole wave — the synchronization cost that makes the
//! blocking protocol expensive at high checkpoint frequencies.
//!
//! The server fleet, image streaming and commit are the shared
//! [`Coordinated`] machinery.

use ftmpi_mpi::{AppMsg, ArrivalAction, Protocol, Rank, RankStatus, RuntimeCore, SendAction};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimDuration, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::engine::{marker_lane, push, with, CheckpointEngine, Coordinated, Fallback, Landing};
use crate::flow::{send_control, FlowSpec};
use crate::image::{RankImage, WaveRecord};
use crate::stats::FtStats;

/// Deferred control items awaiting the rank's next library activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PclCtl {
    /// Rank 0's periodic wave initiation.
    Initiate,
    /// Channel marker from a peer.
    Marker { from: Rank },
}

/// In-flight wave state.
struct PclWave {
    rec: WaveRecord,
    /// Rank has entered the `checkpointing` state (markers sent).
    in_wave: Vec<bool>,
    /// `marker_arrived[dst][src]`: transport-level marker arrival (set even
    /// while processing is deferred — reception blocking is enforced below
    /// the matching engine, like Nemesis' delayed receive queue).
    marker_arrived: Vec<Vec<bool>>,
    /// Markers *processed* per rank.
    markers_processed: Vec<usize>,
    /// Deferred control items per rank.
    pending_ctl: Vec<Vec<PclCtl>>,
    /// Local checkpoint taken.
    ckpt_taken: Vec<bool>,
    /// Sends delayed during the wave, per source rank.
    delayed_sends: Vec<Vec<AppMsg>>,
    /// Arrivals delayed during the wave, per destination rank.
    delayed_arrivals: Vec<Vec<AppMsg>>,
    /// Images reported stored to rank 0.
    images_stored: usize,
    /// Replica flows still streaming, per rank (rank 0 is notified when a
    /// rank's count drains to zero).
    image_flows_left: Vec<usize>,
}

impl PclWave {
    fn new(wave: u64, n: usize, started_at: SimTime) -> PclWave {
        PclWave {
            rec: WaveRecord::new(wave, n, started_at),
            in_wave: vec![false; n],
            marker_arrived: (0..n).map(|_| vec![false; n]).collect(),
            markers_processed: vec![0; n],
            pending_ctl: vec![Vec::new(); n],
            ckpt_taken: vec![false; n],
            delayed_sends: vec![Vec::new(); n],
            delayed_arrivals: vec![Vec::new(); n],
            images_stored: 0,
            image_flows_left: vec![0; n],
        }
    }
}

/// The blocking protocol engine.
pub struct Pcl {
    co: Coordinated,
    cur: Option<PclWave>,
}

impl Pcl {
    /// Build the engine for a deployment.
    pub fn new(cfg: FtConfig, dep: &Deployment) -> Pcl {
        Pcl {
            co: Coordinated::new(cfg, dep),
            cur: None,
        }
    }

    /// Queue a control item for `rank`, processing immediately if the rank
    /// is inside the library (parked in a blocking op) or no longer running
    /// application code.
    fn queue_ctl(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank, ctl: PclCtl) {
        let rs = &rt.ranks[rank];
        if rs.status == RankStatus::Dead {
            // Undetected-dead rank (detection lag): its library is gone, so
            // it can neither process nor defer control traffic. The wave
            // stalls on it and is aborted by the eventual restart.
            return;
        }
        let in_lib = rs.blocked_in_lib || rs.status != RankStatus::Running;
        if in_lib || self.co.cfg.pcl_async_markers {
            self.process_ctl(rt, sc, rank, ctl);
        } else if let Some(cur) = self.cur.as_mut() {
            cur.pending_ctl[rank].push(ctl);
        }
    }

    /// Drain deferred control items for `rank` (library entry).
    fn drain_ctl(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        while let Some(ctl) = self.cur.as_mut().and_then(|cur| {
            (!cur.pending_ctl[rank].is_empty()).then(|| cur.pending_ctl[rank].remove(0))
        }) {
            self.process_ctl(rt, sc, rank, ctl);
        }
    }

    fn process_ctl(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank, ctl: PclCtl) {
        self.enter_wave(rt, sc, rank);
        if let PclCtl::Marker { from } = ctl {
            let _ = from; // dedup already happened at transport arrival
            let all_markers = self.cur.as_mut().is_some_and(|cur| {
                cur.markers_processed[rank] += 1;
                let n = cur.in_wave.len();
                cur.markers_processed[rank] == n - 1 && !cur.ckpt_taken[rank]
            });
            if all_markers {
                self.take_checkpoint(rt, sc, rank);
            }
        } else if rt.size() == 1 {
            // Single-process job: the initiator checkpoints immediately.
            self.take_checkpoint(rt, sc, rank);
        }
    }

    /// Enter the `checkpointing` state: send markers on every channel; all
    /// subsequent sends are delayed until the local checkpoint.
    fn enter_wave(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        if cur.in_wave[rank] {
            return;
        }
        cur.in_wave[rank] = true;
        let wave = cur.rec.wave;
        let handle = rt.world_handle();
        let epoch = rt.epoch;
        let src_node = rt.placement.node_of(rank);
        // Markers travel the same channels as application messages (FIFO).
        let ctl_bytes = self.co.cfg.control_bytes;
        let penalty = rt.cfg.profile.message_penalty(ctl_bytes);
        for s in (0..cur.in_wave.len()).filter(|&s| s != rank) {
            sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerSend {
                wave,
                from: rank,
                to: s,
            });
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
                with(&mut w, |pcl: &mut Pcl, rt| {
                    pcl.on_marker_arrival(rt, sc, rank, s, wave);
                });
            });
        }
    }

    /// Transport-level marker arrival on channel `from → to`.
    fn on_marker_arrival(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        from: Rank,
        to: Rank,
        wave: u64,
    ) {
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        if cur.rec.wave != wave || cur.marker_arrived[to][from] {
            return;
        }
        cur.marker_arrived[to][from] = true;
        sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerRecv { wave, from, to });
        self.queue_ctl(rt, sc, to, PclCtl::Marker { from });
    }

    /// All markers held: fork, record the image, stream it, and release the
    /// delayed queues ("after having taken its checkpoint, a process can
    /// send and receive any messages").
    fn take_checkpoint(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        if cur.ckpt_taken[rank] {
            return;
        }
        cur.ckpt_taken[rank] = true;
        let cfg = &self.co.cfg;
        rt.add_penalty(rank, cfg.fork_cost);
        let rs = &rt.ranks[rank];
        let (wave, ops) = (cur.rec.wave, rs.ops_completed);
        let credit = rt.capture_credit(rank, sc.now());
        // Delayed sends are in-memory buffered messages: they are part of
        // the image and will be *sent again* after a restart.
        cur.rec.delayed_sends[rank] = cur.delayed_sends[rank].clone();
        cur.rec.images[rank] = RankImage {
            ops_completed: rs.ops_completed,
            time_credit: credit,
            taken_at: sc.now(),
            pending: rt.snapshot_pending(rank),
            expect_seq: Vec::new(), // coordinated: global restarts reset
            send_seq: Vec::new(),
        };
        // While the image streams through the process's own channel, every
        // MPI operation pays the progress-engine sharing drag.
        rt.ranks[rank].op_drag = cfg.blocking_stream_drag;
        let release_sends = std::mem::take(&mut cur.delayed_sends[rank]);
        // The delayed receive queue is delivered now (post-checkpoint); on
        // restart it is *discarded* — senders re-send.
        let release_arrivals = std::mem::take(&mut cur.delayed_arrivals[rank]);
        let image_flows = self.co.image_flows(rt, rank);
        cur.image_flows_left[rank] = image_flows.len();
        sc.trace_proto(ftmpi_sim::ProtoEvent::Fork { wave, rank, ops });
        for msg in release_sends {
            rt.launch_send(sc, msg);
        }
        for msg in release_arrivals {
            rt.deliver_to_matching(sc, msg);
        }
        for spec in image_flows {
            self.co.start_image_stream(rt, sc, spec, rank, wave);
        }
    }

    /// Rank 0 collects image-stored reports; commits when all arrived.
    fn on_image_report(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, wave: u64) {
        let n = rt.size();
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        if cur.rec.wave != wave {
            return;
        }
        cur.images_stored += 1;
        if cur.images_stored < n {
            return;
        }
        if let Some(done) = self.cur.take() {
            self.co.commit(rt, sc, done.rec);
        }
    }

    /// Hook-context drain: callable while the protocol itself is the active
    /// borrow. Heavy work (marker fan-out, checkpoint capture) runs from an
    /// immediate event that re-enters through [`Pcl::drain_ctl`].
    fn drain_via_hook(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let has_pending = self
            .cur
            .as_ref()
            .is_some_and(|cur| !cur.pending_ctl[rank].is_empty());
        if !has_pending {
            return;
        }
        let handle = rt.world_handle();
        let epoch = rt.epoch;
        sc.schedule(sc.now(), move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            let mut w = world.lock();
            if w.rt.epoch != epoch {
                return;
            }
            with(&mut w, |pcl: &mut Pcl, rt| pcl.drain_ctl(rt, sc, rank));
        });
    }
}

impl CheckpointEngine for Pcl {
    fn coordinated(&mut self) -> Option<&mut Coordinated> {
        Some(&mut self.co)
    }

    /// Create the wave state and hand the initiation to rank 0.
    fn begin_wave(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        if self.cur.is_some() || self.co.live_server_count() == 0 {
            return; // a wave is already in flight, or no servers survive
        }
        let wave = self.co.next_wave();
        self.cur = Some(PclWave::new(wave, rt.size(), sc.now()));
        sc.trace_proto(ftmpi_sim::ProtoEvent::WaveStart { wave });
        // Rank 0 initiates: processed when its progress engine runs.
        self.queue_ctl(rt, sc, 0, PclCtl::Initiate);
    }

    fn abort_wave(&mut self, sc: &SimCtx) -> bool {
        let Some(cur) = self.cur.take() else {
            return false;
        };
        self.co.wave_aborted(sc, cur.rec.wave);
        true
    }

    /// Unlike a restart abort — where the whole job rolls back and delayed
    /// messages are re-sent from the restored images — the job keeps
    /// running here, so the aborted wave's held queues must be released or
    /// every rank still synchronizing would hang forever.
    fn abort_and_rearm(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        let Some(cur) = self.cur.take() else {
            return;
        };
        self.co.wave_aborted(sc, cur.rec.wave);
        for msg in cur.delayed_sends.into_iter().flatten() {
            rt.launch_send(sc, msg);
        }
        for msg in cur.delayed_arrivals.into_iter().flatten() {
            rt.deliver_to_matching(sc, msg);
        }
        self.co.rearm(rt, sc);
    }

    /// The stream dies with its wave or its last server: its drag ends with
    /// it (a reroute keeps the channel busy, drag included).
    fn image_push_failed(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
        spec: FlowSpec,
    ) {
        let push = self
            .cur
            .as_mut()
            .and_then(|cur| push(&cur.rec, &mut cur.image_flows_left, rank, wave));
        match self.co.push_failed(rt, sc, push, rank, wave, spec) {
            Fallback::Rerouted => {}
            Fallback::Stale => rt.ranks[rank].op_drag = SimDuration::ZERO,
            Fallback::Abort => {
                rt.ranks[rank].op_drag = SimDuration::ZERO;
                self.abort_and_rearm(rt, sc);
            }
        }
    }

    /// When the rank's last replica lands, notify rank 0 ("sends a message
    /// to the MPI process of rank 0 such that a new checkpoint wave can be
    /// scheduled").
    fn image_stored(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
        server: NodeId,
        done_at: SimTime,
    ) {
        let push = self
            .cur
            .as_mut()
            .and_then(|cur| push(&cur.rec, &mut cur.image_flows_left, rank, wave));
        match self
            .co
            .land_image(rt, sc, push, rank, wave, server, done_at)
        {
            Landing::Stored { last: false } => {}
            // Stale stream (wave aborted): the channel is idle again.
            Landing::Stale => rt.ranks[rank].op_drag = SimDuration::ZERO,
            Landing::Stored { last: true } => {
                rt.ranks[rank].op_drag = SimDuration::ZERO;
                let (src, dst) = (rt.placement.node_of(rank), rt.placement.node_of(0));
                let bytes = self.co.cfg.control_bytes;
                send_control(rt, sc, src, dst, bytes, None, move |w, sc| {
                    with(w, |pcl: &mut Pcl, rt| pcl.on_image_report(rt, sc, wave));
                });
            }
            Landing::Dropped(spec) => self.image_push_failed(rt, sc, rank, wave, spec),
        }
    }

    fn final_stats(&mut self) -> FtStats {
        self.co.final_stats(self.cur.as_ref().map(|c| c.rec.wave))
    }
}

impl Protocol for Pcl {
    fn name(&self) -> &'static str {
        "pcl"
    }

    fn on_runtime_entry(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        // The progress engine runs: handle deferred initiations/markers.
        self.drain_via_hook(rt, sc, rank);
    }

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, msg: &AppMsg) -> SendAction {
        if let Some(cur) = self.cur.as_mut() {
            if cur.in_wave[msg.src] && !cur.ckpt_taken[msg.src] {
                cur.delayed_sends[msg.src].push(msg.clone());
                self.co.stats.sends_delayed += 1;
                return SendAction::Hold;
            }
        }
        SendAction::Proceed
    }

    fn on_arrival(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        if msg.src != msg.dst {
            if let Some(cur) = self.cur.as_mut() {
                if cur.marker_arrived[msg.dst][msg.src] && !cur.ckpt_taken[msg.dst] {
                    cur.delayed_arrivals[msg.dst].push(msg.clone());
                    self.co.stats.arrivals_delayed += 1;
                    return ArrivalAction::Hold;
                }
            }
        }
        ArrivalAction::Deliver
    }

    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        // A finished rank's library stays responsive: process anything
        // pending so a wave cannot stall on it.
        self.drain_via_hook(rt, sc, rank);
    }
}
