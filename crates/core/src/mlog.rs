//! Mlog: uncoordinated checkpointing with **pessimistic receiver-based
//! message logging** — the alternative family the paper positions itself
//! against (§2, and the MPICH-V line of work it builds on).
//!
//! Mechanics:
//!
//! * every application message is **logged to the rank's checkpoint server
//!   before it is delivered** (pessimistic: no process state may depend on
//!   an unlogged reception). The synchronous log round-trip is the
//!   protocol's failure-free overhead — the reason §2 notes that message
//!   logging "decreases the performance in reliable environments, such as
//!   clusters";
//! * every rank takes **independent periodic checkpoints** (no markers, no
//!   coordination, staggered start); committing an image prunes the log
//!   prefix it supersedes;
//! * on a failure **only the failed rank rolls back**: it restores its last
//!   image, replays its logged receptions in order, receives the messages
//!   buffered while it was down, and suppresses the duplicates of its
//!   re-executed sends at the receivers. No orphans can exist because no
//!   delivery precedes its log record.

use ftmpi_mpi::{
    spawn_rank, AppFn, AppMsg, ArrivalAction, Protocol, Rank, RankStatus, RuntimeCore, SendAction,
    World,
};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimDuration, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::engine::{with, CheckpointEngine};
use crate::flow::{start_flow, FlowSpec};
use crate::image::RankImage;
use crate::server::{CheckpointStore, StoredImage};
use crate::stats::{FtStats, WaveTiming};

/// Per-rank logging / checkpoint state.
struct MlogRank {
    /// Receiver-based log: every delivered message since the last committed
    /// image, in delivery order.
    log: Vec<AppMsg>,
    /// Messages whose synchronous log write is still in flight (arrived but
    /// not yet stable). On a failure these are re-injected in arrival order
    /// so the channel never reorders across the restart.
    in_flight: Vec<AppMsg>,
    /// Last committed image, with the log position it supersedes.
    image: Option<RankImage>,
    /// Image version counter (stale flow completions are ignored).
    image_version: u64,
    /// An image capture+stream is in flight.
    ckpt_in_flight: bool,
    /// The captured-but-not-yet-landed image, keyed by its version. Kept
    /// per rank (at most one capture is in flight, the `ckpt_in_flight`
    /// guard) so a saturated checkpoint server — thousands of streams
    /// backed up at once — costs O(1) per completion, not a scan of the
    /// whole backlog.
    pending: Option<(u64, RankImage)>,
}

/// The uncoordinated message-logging engine.
pub struct Mlog {
    cfg: FtConfig,
    server_node_of: Vec<NodeId>,
    /// Protocol statistics (wave numbers count per-rank checkpoints).
    pub stats: FtStats,
    /// Server control-plane state.
    pub store: CheckpointStore,
    ranks: Vec<MlogRank>,
}

impl Mlog {
    /// Build the engine for a deployment.
    pub fn new(cfg: FtConfig, dep: &Deployment) -> Mlog {
        Mlog {
            cfg,
            server_node_of: (0..dep.nranks()).map(|r| dep.server_node_of(r)).collect(),
            stats: FtStats::default(),
            store: CheckpointStore::default(),
            ranks: (0..dep.nranks())
                .map(|_| MlogRank {
                    log: Vec::new(),
                    in_flight: Vec::new(),
                    image: None,
                    image_version: 0,
                    ckpt_in_flight: false,
                    pending: None,
                })
                .collect(),
        }
    }

    /// Arm rank `r`'s next checkpoint at `at` (incarnation-guarded).
    fn schedule_rank_ckpt(
        sc: &SimCtx,
        handle: std::sync::Weak<parking_lot::Mutex<World>>,
        r: Rank,
        at: SimTime,
        incarnation: u64,
    ) {
        sc.schedule(at, move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            let mut w = world.lock();
            if w.rt.job_complete() || w.rt.ranks[r].incarnation != incarnation {
                return;
            }
            if w.rt.ranks[r].status == RankStatus::Dead {
                return; // restart will re-arm
            }
            Mlog::take_rank_checkpoint(&mut w, sc, r);
        });
    }

    /// Capture and stream rank `r`'s image; commit on completion.
    fn take_rank_checkpoint(w: &mut World, sc: &SimCtx, r: Rank) {
        let incarnation = w.rt.ranks[r].incarnation;
        let mut flow: Option<(FlowSpec, u64, u64)> = None;
        with(w, |m: &mut Mlog, rt| {
            let mr = &mut m.ranks[r];
            if mr.ckpt_in_flight {
                return;
            }
            mr.ckpt_in_flight = true;
            m.stats.waves_started += 1;
            rt.add_penalty(r, m.cfg.fork_cost);
            let rs = &rt.ranks[r];
            let credit = rt.capture_credit(r, sc.now());
            let image = RankImage {
                ops_completed: rs.ops_completed,
                time_credit: credit,
                taken_at: sc.now(),
                pending: rt.snapshot_pending(r),
                expect_seq: rt.expect_seq_snapshot(r),
                send_seq: rt.send_seq_snapshot(r),
            };
            mr.image_version += 1;
            let version = mr.image_version;
            let log_mark = mr.log.len() as u64;
            // Stash the candidate image alongside the flow; committed only
            // when the stream lands (kept in the closure below).
            flow = Some((
                FlowSpec {
                    src: rt.placement.node_of(r),
                    dst: m.server_node_of[r],
                    bytes: m.cfg.image_bytes,
                    chunk: m.cfg.chunk_bytes,
                    also_disk: m.cfg.write_local_disk,
                },
                version,
                log_mark,
            ));
            // The image commits only when the stream lands. Overwriting a
            // leftover entry from before a restart is fine: that capture
            // was superseded and its completion no longer matches.
            mr.pending = Some((version, image));
        });
        if let Some((spec, version, log_mark)) = flow {
            start_flow(&mut w.rt, sc, spec, move |w, sc, done_at| {
                Mlog::image_stored(w, sc, r, version, log_mark, done_at, incarnation);
            });
        }
    }

    /// A rank's image finished streaming: commit it, prune the log, re-arm.
    #[allow(clippy::too_many_arguments)]
    fn image_stored(
        w: &mut World,
        sc: &SimCtx,
        r: Rank,
        version: u64,
        log_mark: u64,
        done_at: SimTime,
        incarnation: u64,
    ) {
        let handle = w.rt.world_handle();
        let mut next: Option<SimTime> = None;
        with(w, |m: &mut Mlog, rt| {
            let image = match m.ranks[r].pending.take() {
                Some((pv, image)) if pv == version => image,
                // A completion for a superseded capture: put back whatever
                // newer in-flight image it raced with.
                other => {
                    m.ranks[r].pending = other;
                    return;
                }
            };
            let taken_at = image.taken_at;
            let mr = &mut m.ranks[r];
            if mr.image_version != version {
                return; // superseded
            }
            mr.ckpt_in_flight = false;
            // Commit: the log prefix before the capture is superseded.
            mr.log.drain(..(log_mark as usize).min(mr.log.len()));
            mr.image = Some(image);
            m.stats.image_bytes_sent += m.cfg.image_bytes;
            m.stats.waves_committed += 1;
            m.stats.wave_timings.push(WaveTiming {
                wave: m.stats.waves_committed,
                started_at: taken_at,
                committed_at: done_at,
            });
            m.store.record_image(
                version,
                r,
                StoredImage {
                    server: m.server_node_of[r],
                    bytes: m.cfg.image_bytes,
                    stored_at: done_at,
                    // Uncoordinated restores keep the image in-engine and
                    // never digest-verify a fetch; the slot is bookkeeping.
                    digest: 0,
                },
            );
            if rt.ranks[r].incarnation == incarnation {
                next = Some(sc.now() + m.cfg.period);
            }
        });
        if let Some(at) = next {
            Mlog::schedule_rank_ckpt(sc, handle, r, at, incarnation);
        }
    }

    /// Single-rank failure handling: only the victim rolls back; everyone
    /// else keeps computing.
    ///
    /// The victim restores its own last image, replays its receiver-based
    /// log, and re-executes from there; its re-sent messages are suppressed
    /// as duplicates at the receivers, and messages addressed to it while it
    /// was down wait in the runtime (sender-side transport retransmission).
    fn restart_rank(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        app: &AppFn,
        victim: Rank,
        ft: &FtConfig,
    ) {
        if rt.job_complete() || rt.ranks[victim].status != RankStatus::Running {
            return;
        }
        let handle = rt.world_handle();
        let now = sc.now();

        // Kill only the victim's task.
        if let Some(pid) = rt.ranks[victim].pid.take() {
            sc.kill(pid);
        }
        rt.stats.restarts += 1;

        // Take the victim's restore data; its capture in flight is void.
        let mr = &mut self.ranks[victim];
        let (image, log) = (mr.image.clone(), mr.log.clone());
        // Messages whose log writes were in flight: their pending
        // completions die on the incarnation guard.
        let in_flight = std::mem::take(&mut mr.in_flight);
        mr.ckpt_in_flight = false;
        self.stats.restarts += 1;

        // Roll the victim back (bumps its incarnation: stale per-rank events
        // and timers die) and rebuild its pre-crash runtime memory.
        let (skip, credit) = image
            .as_ref()
            .map(|i| (i.ops_completed, i.time_credit))
            .unwrap_or((0, SimDuration::ZERO));
        rt.ranks[victim].reset_for_restart(skip, credit);
        let incarnation = rt.ranks[victim].incarnation;
        match &image {
            Some(img) => {
                rt.set_expect_seq(victim, img.expect_seq.clone());
                rt.set_send_seq(victim, img.send_seq.clone());
            }
            // No image: the rank restarts from scratch with empty (all-zero)
            // sparse watermarks.
            None => rt.set_expect_seq(victim, Vec::new()),
        }
        if let Some(img) = &image {
            for m in img.pending.clone() {
                rt.inject_restored(sc, m);
            }
        }
        // Replay the receiver-based log, in delivery order.
        for m in log {
            rt.inject_restored(sc, m);
        }
        // Messages whose log writes were cut short by the failure re-enter
        // arrival handling in their original order (they re-log under the
        // new incarnation and are held until the write lands); doing this
        // before any later traffic preserves the per-channel FIFO the
        // duplicate watermark depends on.
        for m in in_flight {
            let action = self.on_arrival(rt, sc, &m);
            debug_assert_eq!(action, ArrivalAction::Hold);
        }

        // Image fetch from the victim's server, then respawn and re-arm its
        // independent checkpoint cycle.
        let node = rt.placement.node_of(victim);
        let base = now + ft.restart_delay;
        let ready = if image.is_some() {
            let server = self.server_node_of[victim];
            rt.net
                .transfer(server, node, ft.image_bytes, base)
                .delivered
        } else {
            base
        };
        let period = ft.period;
        let app = app.clone();
        sc.schedule(ready, move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            if world.lock().rt.ranks[victim].incarnation != incarnation {
                return;
            }
            spawn_rank(sc, &world, victim, app);
            let handle = world.lock().rt.world_handle();
            Mlog::schedule_rank_ckpt(sc, handle, victim, sc.now() + period, incarnation);
        });
    }
}

impl CheckpointEngine for Mlog {
    /// Enable the runtime semantics single-rank restart needs and arm the
    /// staggered per-rank checkpoint timers.
    fn start(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        rt.suppress_duplicate_seq = true;
        let n = rt.size();
        let (first, period) = (self.cfg.first_wave_delay, self.cfg.period);
        for r in 0..n {
            // Stagger: rank r starts its cycle r/n of a period late, so the
            // servers never see a synchronized burst (the point of
            // uncoordinated checkpointing).
            let at = sc.now() + first + (period * r as u64) / n as u64;
            Mlog::schedule_rank_ckpt(sc, rt.world_handle(), r, at, 0);
        }
    }

    /// Single-rank recovery reacts to a death at once; the dispatcher's
    /// heartbeat model does not apply.
    fn heartbeat_detected(&self) -> bool {
        false
    }

    fn restart(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        app: &AppFn,
        victims: &[Rank],
        ft: &FtConfig,
    ) {
        for &victim in victims {
            self.restart_rank(rt, sc, app, victim, ft);
        }
    }

    fn final_stats(&mut self) -> FtStats {
        self.stats.clone()
    }
}

impl Protocol for Mlog {
    fn name(&self) -> &'static str {
        "mlog"
    }

    fn on_runtime_entry(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {}

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> SendAction {
        SendAction::Proceed
    }

    fn on_arrival(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        // Pessimistic logging: ship a copy to the receiver's server and
        // deliver only once the log record is stable. The synchronous
        // round-trip (plus the log traffic on the NIC) is the failure-free
        // price of the protocol.
        let dst_node = rt.placement.node_of(msg.dst);
        let server = self.server_node_of[msg.dst];
        let stored = rt
            .net
            .transfer(dst_node, server, msg.bytes.max(64), sc.now())
            .delivered;
        let ack = rt.net.transfer(server, dst_node, 64, stored).delivered;
        self.stats.msgs_logged += 1;
        self.stats.log_bytes_sent += msg.bytes.max(64);
        self.ranks[msg.dst].in_flight.push(msg.clone());
        let handle = rt.world_handle();
        let epoch = rt.epoch;
        let incarnation = rt.ranks[msg.dst].incarnation;
        let msg = msg.clone();
        sc.schedule(ack, move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            let mut w = world.lock();
            if w.rt.epoch != epoch {
                return;
            }
            if w.rt.ranks[msg.dst].incarnation != incarnation {
                // The rank died before the log record stabilized. The
                // restart already re-injected this message from the
                // in-flight set, in channel order — this stale completion
                // simply dies.
                return;
            }
            with(&mut w, |m: &mut Mlog, _| {
                let mr = &mut m.ranks[msg.dst];
                mr.in_flight
                    .retain(|f| !(f.src == msg.src && f.seq == msg.seq));
                mr.log.push(msg.clone());
            });
            w.rt.deliver_to_matching(sc, msg);
        });
        ArrivalAction::Hold
    }
}
