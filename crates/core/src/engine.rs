//! One checkpoint engine: what every protocol exposes to the runner and to
//! recovery, and what the two coordinated protocols share.
//!
//! * [`CheckpointEngine`] is the interface the runner and the dispatcher
//!   (`recovery`) drive an engine through: start, proactive triggers,
//!   wave aborts, checkpoint-server loss, failure restarts and the final
//!   statistics. Every hook has a default, so an engine implements only
//!   what it models — [`DummyProtocol`] implements none of them.
//! * [`Coordinated`] owns the machinery Pcl and Vcl have in common: the
//!   checkpoint-server fleet and its store, the committed waves, the wave
//!   timer, replica image streaming with its reroute and torn-write paths,
//!   the commit, and the restore planning and scrub scans recovery runs
//!   against them. The protocols differ only in how a wave synchronizes —
//!   which is what the paper compares.
//!
//! Adding a protocol means one module implementing [`CheckpointEngine`]
//! (plus [`Protocol`] for the runtime hooks); a coordinated one embeds a
//! [`Coordinated`] and returns it from [`CheckpointEngine::coordinated`].
//!
//! The world stores its engine as a type-erased `Box<dyn Protocol>`. The
//! two functions here that recover it — [`split`] for the trait object and
//! [`with`] for a concrete engine's own events — are the only downcasts in
//! the crate.

use std::any::Any;

use ftmpi_mpi::{AppFn, DummyProtocol, Protocol, Rank, RuntimeCore, World};
use ftmpi_net::NodeId;
use ftmpi_sim::{ProtoEvent, SimCtx, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::flow::{start_flow_guarded, FlowRetry, FlowSpec};
use crate::image::{RankImage, WaveRecord};
use crate::mlog::Mlog;
use crate::pcl::Pcl;
use crate::server::{replica_targets, CheckpointStore, StoredImage, TORN_WRITE};
use crate::stats::{FtStats, WaveTiming};
use crate::vcl::Vcl;

/// A fault-tolerance engine as the runner and the dispatcher see it.
pub trait CheckpointEngine: Protocol {
    /// The shared coordinated-checkpointing state; `None` for engines
    /// without checkpoint waves or a server fleet (Dummy, Mlog), which
    /// turns every server fault, corruption and scrub into a no-op.
    fn coordinated(&mut self) -> Option<&mut Coordinated> {
        None
    }

    /// Arm the engine once every rank is spawned. Coordinated engines arm
    /// the first wave timer.
    fn start(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        if let Some(co) = self.coordinated() {
            let at = sc.now() + co.cfg.first_wave_delay;
            co.arm_timer(rt, sc, at);
        }
    }

    /// Begin a checkpoint wave now, unless one is already in flight or no
    /// checkpoint server survives. Fired by the wave timer and by
    /// [`CheckpointEngine::trigger`].
    fn begin_wave(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        let _ = (rt, sc);
    }

    /// Proactively start a wave now (the failure-prediction trigger from
    /// the paper's conclusion), superseding the pending periodic timer.
    fn trigger(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        if rt.job_complete() {
            return;
        }
        let Some(co) = self.coordinated() else {
            return;
        };
        co.timer_gen += 1;
        self.begin_wave(rt, sc);
    }

    /// Drop the in-flight wave because the job rolls back: its partial
    /// images are garbage-collected and its flows and timers die on the
    /// epoch guards. Returns whether a wave was aborted.
    fn abort_wave(&mut self, sc: &SimCtx) -> bool {
        let _ = sc;
        false
    }

    /// Abort the in-flight wave while the job keeps running (server loss,
    /// an image push with nowhere left to go), then re-arm the periodic
    /// timer while live servers remain.
    fn abort_and_rearm(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        if self.abort_wave(sc) {
            if let Some(co) = self.coordinated() {
                co.rearm(rt, sc);
            }
        }
    }

    /// Checkpoint-server node `node` failed: every replica it held is gone
    /// and the in-flight wave (which needed them) aborts.
    fn server_failed(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, node: NodeId) {
        let Some(co) = self.coordinated() else {
            return;
        };
        co.store.fail_server(node);
        self.abort_and_rearm(rt, sc);
    }

    /// Whether failures reach this engine through the dispatcher's
    /// heartbeat detector, so the detection lag and the partition watchdog
    /// apply. Engines that restart single ranks on their own say `false`.
    fn heartbeat_detected(&self) -> bool {
        true
    }

    /// The dispatcher declared `victims` failed: roll back now. The default
    /// is the coordinated kill-all restart from the newest usable committed
    /// wave (from scratch without one).
    fn restart(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        app: &AppFn,
        victims: &[Rank],
        ft: &FtConfig,
    ) {
        crate::recovery::kill_all(self, rt, sc, app, victims, ft);
    }

    /// One replica stream of `rank`'s wave-`wave` image gave up against an
    /// unreachable or unplaceable server (see [`Coordinated::push_failed`]).
    fn image_push_failed(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
        spec: FlowSpec,
    ) {
        let _ = (rt, sc, rank, wave, spec);
    }

    /// One replica stream of `rank`'s wave-`wave` image landed on `server`
    /// (see [`Coordinated::land_image`]).
    #[allow(clippy::too_many_arguments)] // one stream's identity, flattened
    fn image_stored(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
        server: NodeId,
        done_at: SimTime,
    ) {
        let _ = (rt, sc, rank, wave, server, done_at);
    }

    /// End-of-run statistics.
    fn final_stats(&mut self) -> FtStats {
        FtStats::default()
    }
}

impl CheckpointEngine for DummyProtocol {}

/// The world's engine as a [`CheckpointEngine`], beside its runtime.
pub(crate) fn split(w: &mut World) -> (&mut dyn CheckpointEngine, &mut RuntimeCore) {
    let World { rt, proto } = w;
    let any: &mut dyn Any = &mut **proto;
    let engine: Option<&mut dyn CheckpointEngine> = if any.is::<Pcl>() {
        any.downcast_mut::<Pcl>().map(|e| e as _)
    } else if any.is::<Vcl>() {
        any.downcast_mut::<Vcl>().map(|e| e as _)
    } else if any.is::<Mlog>() {
        any.downcast_mut::<Mlog>().map(|e| e as _)
    } else {
        any.downcast_mut::<DummyProtocol>().map(|e| e as _)
    };
    (
        engine.expect("the runner installs only checkpoint engines"),
        rt,
    )
}

/// The world's coordinated state, if its engine has one.
pub(crate) fn coordinated(w: &mut World) -> Option<&mut Coordinated> {
    split(w).0.coordinated()
}

/// Run `f` against the world's engine, known to be an `E` (an engine's own
/// scheduled events).
pub(crate) fn with<E: CheckpointEngine, R>(
    w: &mut World,
    f: impl FnOnce(&mut E, &mut RuntimeCore) -> R,
) -> R {
    let World { rt, proto } = w;
    let any: &mut dyn Any = &mut **proto;
    let engine = any
        .downcast_mut::<E>()
        .expect("world protocol is not the engine that scheduled this event");
    f(engine, rt)
}

/// Tiebreak lane of a checkpoint marker to rank `r`: the rank's own lane,
/// so the marker's position relative to data arrivals on the channel (the
/// op boundary of the cut) is schedule-independent. The `LanelessMarkers`
/// regression fixture drops it, re-opening that race for the schedule
/// explorer.
pub(crate) fn marker_lane(rt: &RuntimeCore, r: Rank) -> Option<u64> {
    if rt.race_fixture == Some(ftmpi_mpi::RaceFixture::LanelessMarkers) {
        None
    } else {
        rt.ranks[r].pid.map(ftmpi_sim::Pid::lane)
    }
}

/// The in-flight wave's view of one rank's image push: the captured image
/// and how many of its replica streams are still in flight.
pub(crate) struct Push<'a> {
    image: &'a RankImage,
    flows_left: &'a mut usize,
}

/// `rank`'s push in the in-flight wave `rec`, if `wave` is still that wave
/// and the rank still has replica streams in flight (otherwise the stream
/// is stale: its wave was aborted meanwhile).
pub(crate) fn push<'a>(
    rec: &'a WaveRecord,
    image_flows_left: &'a mut [usize],
    rank: Rank,
    wave: u64,
) -> Option<Push<'a>> {
    let flows_left = &mut image_flows_left[rank];
    (rec.wave == wave && *flows_left > 0).then_some(Push {
        image: &rec.images[rank],
        flows_left,
    })
}

/// What a failed image push turned into.
pub(crate) enum Fallback {
    /// The wave died while the stream backed off.
    Stale,
    /// Re-aimed at another server.
    Rerouted,
    /// No server can take the image: the wave can never commit.
    Abort,
}

/// What a landed replica stream turned into.
pub(crate) enum Landing {
    /// The wave died while the stream was in flight.
    Stale,
    /// Stored; `last` when it was the rank's last replica.
    Stored { last: bool },
    /// The target was quarantined mid-stream and dropped the write; the
    /// replica must be re-pushed (this spec) elsewhere.
    Dropped(FlowSpec),
}

/// State and machinery shared by the coordinated engines (Pcl and Vcl).
pub struct Coordinated {
    pub(crate) cfg: FtConfig,
    /// Checkpoint-server node of each rank.
    pub(crate) server_node_of: Vec<NodeId>,
    /// The whole checkpoint-server fleet (replica targets, failure fallback).
    server_nodes: Vec<NodeId>,
    /// Protocol statistics.
    pub stats: FtStats,
    /// Server control-plane state.
    pub store: CheckpointStore,
    /// Retained committed waves, oldest → newest (restart sources; older
    /// entries are fallback targets after a server failure).
    pub committed: Vec<WaveRecord>,
    wave_counter: u64,
    /// Wave-timer generation: stale periodic timers (superseded by a
    /// proactive trigger, a commit or a restart) die on a mismatch.
    timer_gen: u64,
}

impl Coordinated {
    /// Shared state for a deployment.
    pub(crate) fn new(cfg: FtConfig, dep: &Deployment) -> Coordinated {
        let mut store = CheckpointStore::default();
        store.set_retention(cfg.retained_waves.max(1));
        Coordinated {
            server_node_of: (0..dep.nranks()).map(|r| dep.server_node_of(r)).collect(),
            server_nodes: dep.server_nodes.clone(),
            cfg,
            stats: FtStats::default(),
            store,
            committed: Vec::new(),
            wave_counter: 0,
            timer_gen: 0,
        }
    }

    /// Server node at `idx` in the deployment's fleet, if any.
    pub(crate) fn server_node(&self, idx: usize) -> Option<NodeId> {
        self.server_nodes.get(idx).copied()
    }

    /// Servers still alive.
    pub(crate) fn live_server_count(&self) -> usize {
        self.server_nodes
            .iter()
            .filter(|n| !self.store.server_failed(**n))
            .count()
    }

    /// Number the next wave and count it started.
    pub(crate) fn next_wave(&mut self) -> u64 {
        self.wave_counter += 1;
        self.stats.waves_started += 1;
        self.wave_counter
    }

    /// Arm the wave timer at `at`, superseding any pending one. The timer
    /// dies if the job restarts (epoch) or completes first.
    pub(crate) fn arm_timer(&mut self, rt: &RuntimeCore, sc: &SimCtx, at: SimTime) {
        self.timer_gen += 1;
        let (handle, epoch, gen) = (rt.world_handle(), rt.epoch, self.timer_gen);
        sc.schedule(at, move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            let mut w = world.lock();
            if w.rt.epoch != epoch || w.rt.job_complete() {
                return;
            }
            let (engine, rt) = split(&mut w);
            if engine.coordinated().is_some_and(|co| co.timer_gen == gen) {
                engine.begin_wave(rt, sc);
            }
        });
    }

    /// Account an aborted wave: garbage-collect its partial images.
    pub(crate) fn wave_aborted(&mut self, sc: &SimCtx, wave: u64) {
        self.stats.waves_aborted += 1;
        self.store.abort(wave);
        sc.trace_proto(ProtoEvent::WaveAbort { wave });
    }

    /// Re-arm the periodic timer one period out after an abort, unless the
    /// job is done or no server is left to checkpoint to.
    pub(crate) fn rearm(&mut self, rt: &RuntimeCore, sc: &SimCtx) {
        if !rt.job_complete() && self.live_server_count() > 0 {
            self.arm_timer(rt, sc, sc.now() + self.cfg.period);
        }
    }

    /// Commit a completed wave, retain it as a restart source, and arm the
    /// next timer — "the timeout for the next checkpoint wave is set as
    /// soon as every process has transferred its image".
    pub(crate) fn commit(&mut self, rt: &RuntimeCore, sc: &SimCtx, mut rec: WaveRecord) {
        let wave = rec.wave;
        rec.committed_at = sc.now();
        self.stats.waves_committed += 1;
        self.stats.wave_timings.push(WaveTiming {
            wave,
            started_at: rec.started_at,
            committed_at: sc.now(),
        });
        self.store.commit(wave);
        self.committed.push(rec);
        let retain = self.cfg.retained_waves.max(1);
        while self.committed.len() > retain {
            self.committed.remove(0);
        }
        sc.trace_proto(ProtoEvent::WaveCommit { wave });
        self.arm_timer(rt, sc, sc.now() + self.cfg.period);
    }

    /// One stream per replica target for `rank`'s image; the local disk is
    /// written once.
    pub(crate) fn image_flows(&self, rt: &RuntimeCore, rank: Rank) -> Vec<FlowSpec> {
        let src = rt.placement.node_of(rank);
        let targets = replica_targets(
            &self.server_nodes,
            self.server_node_of[rank],
            self.cfg.replicas,
            &self.store,
        );
        targets
            .into_iter()
            .enumerate()
            .map(|(i, server)| FlowSpec {
                src,
                dst: server,
                bytes: self.cfg.image_bytes,
                chunk: self.cfg.chunk_bytes,
                also_disk: self.cfg.write_local_disk && i == 0,
            })
            .collect()
    }

    /// Launch one replica stream of `rank`'s wave-`wave` image toward
    /// `spec.dst`, under the job's bounded retry budget: if the target
    /// stays unreachable behind a link fault or partition the push
    /// surrenders to [`CheckpointEngine::image_push_failed`].
    pub(crate) fn start_image_stream(
        &self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        spec: FlowSpec,
        rank: Rank,
        wave: u64,
    ) {
        let server = spec.dst;
        let fail_spec = spec.clone();
        start_flow_guarded(
            rt,
            sc,
            spec,
            FlowRetry::bounded(&self.cfg),
            move |w, sc| {
                let (engine, rt) = split(w);
                engine.image_push_failed(rt, sc, rank, wave, fail_spec);
            },
            move |w, sc, done_at| {
                let (engine, rt) = split(w);
                engine.image_stored(rt, sc, rank, wave, server, done_at);
            },
        );
    }

    /// A replica stream of `rank`'s image spent its whole retry budget
    /// against an unreachable server (or landed on one quarantined
    /// meanwhile). Reroute it to the next server that is placeable,
    /// reachable round-trip from the source, and not already holding this
    /// image. With no such server the wave can never commit: the caller
    /// aborts it.
    #[allow(clippy::too_many_arguments)] // one stream's identity, flattened
    pub(crate) fn push_failed(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        push: Option<Push<'_>>,
        rank: Rank,
        wave: u64,
        spec: FlowSpec,
    ) -> Fallback {
        let Some(push) = push else {
            return Fallback::Stale;
        };
        self.stats.retries_exhausted += 1;
        // A *tearing* cut severed this stream mid-flight: the server is
        // left holding a truncated prefix that can never hash to the
        // image's digest. Record the torn replica (damaged bits, not a
        // placement — no `ImageStore` trace) so fetches and scrubs must
        // walk past it; the `server_holds` reroute filter below then keeps
        // this wave from re-targeting the torn server. A dead or
        // quarantined target keeps nothing (`record_image` drops the
        // write), matching a store that died with its server.
        if self.cfg.torn_writes && rt.net.cut_tears(spec.src, spec.dst) {
            let torn = self.store.record_image(
                wave,
                rank,
                StoredImage {
                    server: spec.dst,
                    // The store tracks logical slots, not physical bytes;
                    // the truncated prefix occupies the slot.
                    bytes: spec.bytes,
                    stored_at: sc.now(),
                    digest: push.image.digest(wave, rank) ^ TORN_WRITE,
                },
            );
            if torn {
                sc.trace_proto(ProtoEvent::Corrupt {
                    wave,
                    rank,
                    node: spec.dst.0 as u64,
                });
            }
        }
        let fleet = &self.server_nodes;
        let pos = fleet.iter().position(|n| *n == spec.dst).unwrap_or(0);
        // A candidate must be reachable round-trip: the push streams
        // source → server, the store acknowledgement comes back. Rerouting
        // across a half-open cut would commit an image the wave controller
        // can never hear about. A quarantined server is as unplaceable as a
        // dead one.
        let replacement = (1..fleet.len())
            .map(|i| fleet[(pos + i) % fleet.len()])
            .find(|&cand| {
                !self.store.server_unplaceable(cand)
                    && rt.net.reachable(spec.src, cand)
                    && rt.net.reachable(cand, spec.src)
                    && !self.store.server_holds(wave, rank, cand)
            });
        let Some(cand) = replacement else {
            return Fallback::Abort;
        };
        self.stats.images_rerouted += 1;
        self.start_image_stream(rt, sc, FlowSpec { dst: cand, ..spec }, rank, wave);
        Fallback::Rerouted
    }

    /// One replica stream of `rank`'s image landed on `server`. The stored
    /// record carries the image's content digest — what verify-on-fetch
    /// later checks against. Streams whose wave was aborted meanwhile
    /// (mid-wave server failure — restarts kill flows on the epoch guard
    /// instead) are stale. A write the store drops because the target was
    /// quarantined while the stream was in flight must be re-pushed: the
    /// replica has to land on a placeable server for the wave to commit.
    #[allow(clippy::too_many_arguments)] // one stream's identity, flattened
    pub(crate) fn land_image(
        &mut self,
        rt: &RuntimeCore,
        sc: &SimCtx,
        push: Option<Push<'_>>,
        rank: Rank,
        wave: u64,
        server: NodeId,
        done_at: SimTime,
    ) -> Landing {
        let Some(push) = push else {
            return Landing::Stale;
        };
        self.stats.image_bytes_sent += self.cfg.image_bytes;
        let recorded = self.store.record_image(
            wave,
            rank,
            StoredImage {
                server,
                bytes: self.cfg.image_bytes,
                stored_at: done_at,
                digest: push.image.digest(wave, rank),
            },
        );
        if !recorded {
            return Landing::Dropped(FlowSpec {
                src: rt.placement.node_of(rank),
                dst: server,
                bytes: self.cfg.image_bytes,
                chunk: self.cfg.chunk_bytes,
                also_disk: false,
            });
        }
        *push.flows_left -= 1;
        sc.trace_proto(ProtoEvent::ImageStore {
            wave,
            rank,
            node: server.0 as u64,
        });
        Landing::Stored {
            last: *push.flows_left == 0,
        }
    }

    /// End-of-run statistics, with the bookkeeping health check: partial
    /// images left behind by anything but the wave still in flight.
    pub(crate) fn final_stats(&mut self, in_flight: Option<u64>) -> FtStats {
        self.stats.orphan_images_end = self.store.orphan_images(in_flight);
        self.stats.clone()
    }
}
