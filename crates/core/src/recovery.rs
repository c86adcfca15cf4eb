//! The dispatcher's failure handling: kill the job, restore every rank from
//! a committed wave, replay channel state, and respawn.
//!
//! Matches §4 of the paper: "the dispatcher signals all the other processes
//! to exit" (coordinated checkpointing rolls *all* ranks back), survivors
//! restore "from the local checkpoint stored on the disk if it exists;
//! otherwise they obtain it from the checkpoint server".
//!
//! Beyond the paper's model this module also covers:
//!
//! * **detection latency** ([`inject_kill_many`]): the paper assumes immediate
//!   detection through the broken TCP connection; with
//!   `FtConfig::detection_delay > 0` the victim sits dead (its library and
//!   daemon unresponsive — in-flight waves stall on it) until a heartbeat
//!   timeout fires the engine's restart, so lost work grows with the lag;
//! * **checkpoint-server failures** ([`server_fail`]): images on the dead
//!   server vanish; the next restart falls back to the newest *retained*
//!   committed wave whose needed images survive, or to scratch;
//! * **nested restarts**: a kill landing mid-recovery restarts the restart
//!   cleanly — stale respawns and delayed-send launches die on the epoch
//!   guard, so nothing double-counts;
//! * **correlated failures** ([`inject_kill_many`]): a node death kills
//!   every colocated rank atomically — one detection event, one restart,
//!   not a cascade of nested restarts;
//! * **network partitions** ([`partition_cut`]): a partition does not kill
//!   anything by itself. Heartbeats to the cut-off side just stall, and
//!   only if the cut outlives the grace window
//!   (`FtConfig::partition_rollback_after`) does the dispatcher declare
//!   the unreachable ranks failed. A cut that heals inside the window is
//!   *suppressed* — zero rollbacks, counted in
//!   `FtStats::partitions_suppressed`. Image fetches blocked by an active
//!   fault retry with capped exponential backoff and fall back to the next
//!   replica before giving up.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use ftmpi_mpi::{spawn_rank, AppFn, AppMsg, RankStatus, RuntimeCore, World, WorldRef};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimDuration, SimTime};

use crate::config::FtConfig;
use crate::engine::{coordinated, split, CheckpointEngine, Coordinated};
use crate::flow::{flow_lane, start_flow_guarded, FlowRetry, FlowSpec};
use crate::image::WaveRecord;
use crate::server::{CheckpointStore, StoreError, StoredImage};
use crate::stats::FtStats;

/// Restore data pulled out of a coordinated engine at failure time.
pub(crate) struct RestoreData {
    pub wave: Option<WaveRecord>,
    /// Per-rank server node an image fetch would come from (the lowest
    /// replica whose digest verifies, falling back to the rank's primary
    /// server).
    pub image_source: Vec<NodeId>,
    /// Per-rank *full* replica list, ascending by node id. A fetch blocked
    /// by a network fault walks this list — re-verifying each candidate's
    /// digest at fetch time — before giving up.
    pub image_sources: Vec<Vec<NodeId>>,
    /// Per-rank digest the chosen wave's image must hash to (0 when
    /// restoring from scratch; never consulted then).
    pub expected_digest: Vec<u64>,
    /// Damaged replicas the planner's verification walked past, as
    /// (wave, rank, node) — the caller traces them (the planner has no
    /// `SimCtx`).
    pub detections: Vec<(u64, usize, NodeId)>,
    /// Servers the planner pushed over the corruption threshold.
    pub quarantines: Vec<NodeId>,
}

/// Inspect every replica of one (wave, rank) slot against the digest its
/// wave record implies, recording each failure as a detection and
/// quarantining servers that cross the threshold (0 disables quarantine).
/// Returns how many replicas were damaged. Re-detections of a replica
/// nothing has repaired or dropped yet count again — matching the
/// [`FtStats::images_corrupt_detected`] contract.
#[allow(clippy::too_many_arguments)] // an accounting sink, not an API
fn detect_slot_damage(
    store: &mut CheckpointStore,
    wave: u64,
    rank: usize,
    expected: u64,
    threshold: u64,
    stats: &mut FtStats,
    detections: &mut Vec<(u64, usize, NodeId)>,
    quarantines: &mut Vec<NodeId>,
) -> u64 {
    let mut damaged = 0;
    for node in store.locate_all(wave, rank) {
        if store.verify_replica(wave, rank, node, expected).is_ok() {
            continue;
        }
        damaged += 1;
        stats.images_corrupt_detected += 1;
        detections.push((wave, rank, node));
        let seen = store.note_corruption(node);
        if threshold > 0 && seen >= threshold && store.quarantine_server(node) {
            stats.servers_quarantined += 1;
            quarantines.push(node);
        }
    }
    damaged
}

/// Pick the restore wave and account the rollback: the newest retained
/// committed wave whose server-fetched images all survive *with a
/// verifying digest*, else older retained waves, else scratch. Shared by
/// both coordinated engines.
///
/// Verification is part of wave choice: a slot whose every replica fails
/// its digest blocks the candidate exactly like a slot the server failure
/// erased, so an all-copies-corrupt newest wave falls back to an older
/// retained one instead of committing a doomed fetch. Damage seen along
/// the way feeds the detection/quarantine counters; slots the fallback or
/// the replica walk salvages count as repairs.
fn plan_restore(
    committed: &[WaveRecord],
    store: &mut CheckpointStore,
    server_node_of: &[NodeId],
    stats: &mut FtStats,
    now: SimTime,
    need_server: &[bool],
    quarantine_threshold: u64,
) -> RestoreData {
    let mut detections = Vec::new();
    let mut quarantines = Vec::new();
    let mut chosen: Option<WaveRecord> = None;
    let mut fallback_repairs = 0u64;
    for rec in committed.iter().rev() {
        let mut viable = true;
        let mut blocked_by_corruption = 0u64;
        for (r, need) in need_server.iter().enumerate() {
            if !need {
                continue;
            }
            let expected = rec.images[r].digest(rec.wave, r);
            if store.has_intact_image(rec.wave, r, expected) {
                continue;
            }
            viable = false;
            if store.has_image(rec.wave, r) {
                // Replicas exist but every copy fails verification:
                // corruption, not server loss, blocked this wave here.
                blocked_by_corruption += 1;
                detect_slot_damage(
                    store,
                    rec.wave,
                    r,
                    expected,
                    quarantine_threshold,
                    stats,
                    &mut detections,
                    &mut quarantines,
                );
            }
        }
        if viable {
            // Damaged copies on the chosen wave are walked past by the
            // verified fetch: each affected slot is one repair.
            for (r, need) in need_server.iter().enumerate() {
                if !need {
                    continue;
                }
                let expected = rec.images[r].digest(rec.wave, r);
                let damaged = detect_slot_damage(
                    store,
                    rec.wave,
                    r,
                    expected,
                    quarantine_threshold,
                    stats,
                    &mut detections,
                    &mut quarantines,
                );
                stats.images_repaired += u64::from(damaged > 0);
            }
            chosen = Some(rec.clone());
            break;
        }
        fallback_repairs += blocked_by_corruption;
    }
    if chosen.is_some() {
        // Slots salvaged by falling back past a corruption-blocked newer
        // wave: the older retained copy is the repair.
        stats.images_repaired += fallback_repairs;
    }
    let depth = match &chosen {
        Some(rec) => committed.iter().filter(|c| c.wave > rec.wave).count() as u64,
        None => committed.len() as u64,
    };
    stats.rollback_depth_max = stats.rollback_depth_max.max(depth);
    stats.lost_work += match &chosen {
        Some(rec) => rec.lost_work_at(now),
        None => now.saturating_since(SimTime::ZERO),
    };
    if chosen.is_some() {
        stats.images_refetched += need_server.iter().filter(|&&b| b).count() as u64;
    }
    let expected_digest: Vec<u64> = (0..server_node_of.len())
        .map(|r| {
            chosen
                .as_ref()
                .map(|rec| rec.images[r].digest(rec.wave, r))
                .unwrap_or(0)
        })
        .collect();
    let image_source = (0..server_node_of.len())
        .map(|r| {
            chosen
                .as_ref()
                .and_then(|rec| store.locate_intact(rec.wave, r, expected_digest[r]))
                .map(|img| img.server)
                .unwrap_or(server_node_of[r])
        })
        .collect();
    let image_sources = (0..server_node_of.len())
        .map(|r| {
            let all = chosen
                .as_ref()
                .map(|rec| store.locate_all(rec.wave, r))
                .unwrap_or_default();
            if all.is_empty() {
                vec![server_node_of[r]]
            } else {
                all
            }
        })
        .collect();
    RestoreData {
        wave: chosen,
        image_source,
        image_sources,
        expected_digest,
        detections,
        quarantines,
    }
}

impl Coordinated {
    /// Count the restart and plan its restore (see [`plan_restore`]).
    pub(crate) fn prepare_restart(&mut self, now: SimTime, need_server: &[bool]) -> RestoreData {
        self.stats.restarts += 1;
        plan_restore(
            &self.committed,
            &mut self.store,
            &self.server_node_of,
            &mut self.stats,
            now,
            need_server,
            self.cfg.quarantine_threshold,
        )
    }

    /// Verify every retained (wave, rank, replica) slot in deterministic
    /// store order, doing the detection/quarantine accounting in place and
    /// returning what to trace and which repairs to launch. A damaged copy
    /// is repaired only when its holder can still take writes (not dead,
    /// not quarantined — including a quarantine this very pass triggered)
    /// and some replica of the slot still verifies; otherwise the next
    /// restore's replica walk or retained-wave fallback deals with it.
    fn scrub_scan(&mut self) -> ScrubFindings {
        let mut detections = Vec::new();
        let mut quarantines = Vec::new();
        let mut repairs = Vec::new();
        for rec in &self.committed {
            for r in 0..rec.images.len() {
                let expected = rec.images[r].digest(rec.wave, r);
                let before = detections.len();
                detect_slot_damage(
                    &mut self.store,
                    rec.wave,
                    r,
                    expected,
                    self.cfg.quarantine_threshold,
                    &mut self.stats,
                    &mut detections,
                    &mut quarantines,
                );
                for &(wave, rank, node) in &detections[before..] {
                    if self.store.server_unplaceable(node) {
                        continue;
                    }
                    let Some(good) = self.store.locate_intact(wave, rank, expected) else {
                        continue;
                    };
                    repairs.push(ScrubRepair {
                        wave,
                        rank,
                        node,
                        expected,
                        src: good.server,
                        bytes: good.bytes,
                    });
                }
            }
        }
        (detections, quarantines, repairs)
    }
}

/// Kill the tasks of `victims` at this instant (one rank, or every rank a
/// dying node hosted), honoring the detection-latency model.
///
/// With `detection_delay == 0` this *is* the engine's
/// [`CheckpointEngine::restart`] — the paper's immediate detection,
/// bit-for-bit; so it is for engines outside the heartbeat model
/// ([`CheckpointEngine::heartbeat_detected`]). With a positive lag the
/// victims' tasks die now (processes killed, ranks marked
/// [`RankStatus::Dead`]) but the dispatcher only notices — and restarts
/// the job — one heartbeat timeout later. One detection event covers the
/// whole group: the dispatcher sees the node's heartbeats vanish together
/// and restarts the job exactly once, instead of stacking a nested restart
/// per rank. A kill of an already-dead rank during that window is absorbed
/// (one task cannot die twice), so the kill is a no-op only if *every*
/// victim was already dead; a restart happening in between revives the
/// victims and cancels the stale detection via the epoch guard. An empty
/// group is also a no-op — the death of a node hosting no ranks (a
/// dedicated server machine) is its colocated server failure alone, not a
/// job restart.
pub fn inject_kill_many(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    victims: &[usize],
    ft: &FtConfig,
) {
    if victims.is_empty() {
        return;
    }
    let mut w = world.borrow_mut();
    let (engine, rt) = split(&mut w);
    if ft.detection_delay.is_zero() || !engine.heartbeat_detected() {
        engine.restart(rt, sc, app, victims, ft);
        return;
    }
    if rt.job_complete() {
        return;
    }
    let mut killed_any = false;
    for &victim in victims {
        if rt.ranks[victim].status == RankStatus::Dead {
            continue; // absorbed: the task is already dead
        }
        if let Some(pid) = rt.ranks[victim].pid.take() {
            sc.kill(pid);
        }
        rt.ranks[victim].status = RankStatus::Dead;
        killed_any = true;
    }
    if !killed_any {
        return;
    }
    let (handle, epoch) = (rt.world_handle(), rt.epoch);
    let app = app.clone();
    let ft = ft.clone();
    let victims = victims.to_vec();
    sc.schedule(sc.now() + ft.detection_delay, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        if w.rt.epoch != epoch {
            return; // a restart already revived the victims
        }
        let (engine, rt) = split(&mut w);
        engine.restart(rt, sc, &app, &victims, &ft);
    });
}

/// Kill a checkpoint-server node (by index into the deployment's server
/// fleet): every image replica it stored becomes unavailable, partial
/// waves streaming to it abort, and later restarts fall back to older
/// retained waves or scratch. Only the coordinated engines model checkpoint
/// servers this way; for the others the call is a no-op, as is an
/// out-of-range index or a kill after job completion.
pub fn server_fail(sc: &SimCtx, world: &WorldRef, server_index: usize) {
    let mut w = world.borrow_mut();
    if w.rt.job_complete() {
        return;
    }
    let Some(node) = coordinated(&mut w).and_then(|co| co.server_node(server_index)) else {
        return;
    };
    sc.trace_proto(ftmpi_sim::ProtoEvent::ServerFail {
        node: node.0 as u64,
    });
    let (engine, rt) = split(&mut w);
    engine.server_failed(rt, sc, node);
}

/// Silently damage stored image replicas on a checkpoint-server node (by
/// fleet index): `rank: Some(r)` flips the replica of `r`'s image
/// belonging to the newest wave stored there; `rank: None` flips every
/// replica the node holds (whole-disk bit rot). Nothing in the runtime
/// notices *now* — detection happens when a fetch or scrub pass verifies a
/// digest, which is the whole point of the injection. No-ops mirror
/// [`server_fail`]: an engine without servers, an out-of-range index, a
/// completed job, or a server holding nothing to damage.
pub fn corrupt_images(sc: &SimCtx, world: &WorldRef, server_index: usize, rank: Option<usize>) {
    let mut w = world.borrow_mut();
    if w.rt.job_complete() {
        return;
    }
    let Some(co) = coordinated(&mut w) else {
        return;
    };
    let Some(node) = co.server_node(server_index) else {
        return;
    };
    let damaged: Vec<(u64, usize)> = match rank {
        Some(r) => co
            .store
            .corrupt_newest(r, node)
            .map(|wave| vec![(wave, r)])
            .unwrap_or_default(),
        None => co.store.corrupt_server(node),
    };
    for (wave, r) in damaged {
        sc.trace_proto(ftmpi_sim::ProtoEvent::Corrupt {
            wave,
            rank: r,
            node: node.0 as u64,
        });
    }
}

/// The dispatcher's coordinated restart (the default
/// [`CheckpointEngine::restart`]): kill every process and restore every
/// rank from a committed wave (or from scratch if none survives). The
/// group of `victims` only changes *which* ranks must re-fetch their image
/// from a server — coordinated checkpointing rolls all ranks back anyway.
///
/// An image fetch whose source server is unreachable (link down or
/// partitioned) does not deadlock the restart: the rank's fetch turns into
/// a probe chain with capped exponential backoff
/// (`FtConfig::link_retry_delay`), walking the replica list when the
/// per-fetch budget (`link_retry_limit`) runs out, and declaring the job
/// fatally stuck only once every replica is exhausted. With no active
/// faults the probe path is never entered and the restart is byte-for-byte
/// the fault-free one.
///
/// No-op if the job already completed.
pub(crate) fn kill_all<E: CheckpointEngine + ?Sized>(
    engine: &mut E,
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    app: &AppFn,
    victims: &[usize],
    ft: &FtConfig,
) {
    if rt.job_complete() {
        return;
    }
    let n = rt.size();
    let handle = rt.world_handle();

    // 1. The dispatcher kills every process.
    for r in 0..n {
        let rs = &mut rt.ranks[r];
        if let Some(pid) = rs.pid.take() {
            sc.kill(pid);
        }
        rs.status = RankStatus::Dead;
    }
    rt.epoch += 1;
    let epoch = rt.epoch;
    sc.trace_proto(ftmpi_sim::ProtoEvent::Restart { epoch });
    rt.stats.finished_ranks = 0;
    rt.stats.restarts += 1;
    let now = sc.now();
    rt.net.reset_queues(now);

    // Which ranks must fetch their image from a server (constrains the
    // restore wave: a server failure may have lost the newest images).
    let need_server: Vec<bool> = (0..n)
        .map(|r| (victims.contains(&r) && ft.fetch_failed_from_server) || !ft.write_local_disk)
        .collect();

    // 2. Pull restore data from the engine and abort any in-flight wave
    //    (its partial images are garbage-collected; its flows and timers
    //    die on the epoch guards).
    let restore = engine
        .coordinated()
        .map(|co| co.prepare_restart(now, &need_server));
    engine.abort_wave(sc);
    let wave = restore.as_ref().and_then(|d| d.wave.clone());
    if let Some(data) = &restore {
        for &(cw, cr, cnode) in &data.detections {
            sc.trace_proto(ftmpi_sim::ProtoEvent::CorruptDetected {
                wave: cw,
                rank: cr,
                node: cnode.0 as u64,
            });
        }
        for &qnode in &data.quarantines {
            sc.trace_proto(ftmpi_sim::ProtoEvent::Quarantine {
                node: qnode.0 as u64,
            });
        }
    }

    // 3. Per-rank restore: reset runtime state, compute the time at which
    //    the rank's image is back in memory, schedule replay + respawn.
    // A server fetch whose source is currently unreachable cannot reserve
    // its transfer now — the rank joins `blocked` and a probe chain takes
    // over after the loop.
    let base = now + ft.restart_delay;
    let mut latest_ready = base;
    let mut blocked: Vec<BlockedFetch> = Vec::new();
    for (r, &from_server) in need_server.iter().enumerate() {
        let (skip, credit) = match &wave {
            Some(rec) => (rec.images[r].ops_completed, rec.images[r].time_credit),
            None => (0, SimDuration::ZERO),
        };
        rt.ranks[r].reset_for_restart(skip, credit);
        let node = rt.placement.node_of(r);
        let ready: Option<SimTime> = match (&wave, &restore) {
            (Some(rec), Some(data)) => {
                if from_server {
                    // A fetch is a round trip: the request must reach the
                    // server and the image must come back. A half-open cut
                    // in either direction blocks it — fetching across one
                    // would commit a restore whose acknowledgement path is
                    // dead.
                    if rt.net.reachable(data.image_source[r], node)
                        && rt.net.reachable(node, data.image_source[r])
                    {
                        // The planner picked this source within the same
                        // borrow, digest-verified — record the consumption.
                        sc.trace_proto(ftmpi_sim::ProtoEvent::RestoreImage {
                            wave: rec.wave,
                            rank: r,
                            node: data.image_source[r].0 as u64,
                        });
                        Some(
                            rt.net
                                .transfer(data.image_source[r], node, ft.image_bytes, base)
                                .delivered,
                        )
                    } else {
                        None // fetch blocked by an active network fault
                    }
                } else {
                    Some(rt.net.disk_read(node, ft.image_bytes, base))
                }
            }
            _ => Some(base),
        };
        if let Some(ready) = ready {
            latest_ready = latest_ready.max(ready);
        }

        // Restore the rank's library memory *now*, before any restarted
        // peer's re-executed sends can arrive: first the image's pending
        // messages, then the Chandy–Lamport channel logs — the arrival
        // order of the consistent cut.
        if let Some(rec) = &wave {
            for m in rec.images[r].pending.clone() {
                rt.inject_restored(sc, m);
            }
            for m in rec.logs[r].clone() {
                rt.inject_restored(sc, m);
            }
        }
        // Blocking protocol: "every message delayed in emission will be
        // sent again after the restart" — when the process resumes.
        let delayed_sends = wave
            .as_ref()
            .map(|rec| rec.delayed_sends[r].clone())
            .unwrap_or_default();
        let Some(ready) = ready else {
            let sources = restore
                .as_ref()
                .map(|d| d.image_sources[r].clone())
                .unwrap_or_default();
            blocked.push(BlockedFetch {
                rank: r,
                node,
                sources,
                delayed_sends,
                wave: wave.as_ref().map_or(0, |rec| rec.wave),
                expected: restore.as_ref().map_or(0, |d| d.expected_digest[r]),
            });
            continue;
        };
        schedule_respawn(
            sc,
            handle.clone(),
            epoch,
            r,
            ready,
            delayed_sends,
            app.clone(),
        );
    }

    // 4. Re-arm the wave timer once the platform is back. With fetches
    //    blocked behind a fault the re-arm waits for the last probe chain
    //    to land (the join tracks the real latest-ready instant).
    if blocked.is_empty() {
        if let Some(co) = engine.coordinated() {
            co.arm_timer(rt, sc, latest_ready + ft.period);
        }
    } else {
        let join = Rc::new(RefCell::new(FetchJoin {
            remaining: blocked.len(),
            latest_ready,
        }));
        for bf in blocked {
            schedule_fetch_probe(
                sc,
                FetchProbe {
                    handle: handle.clone(),
                    epoch,
                    fetch: bf,
                    src_idx: 0,
                    attempt: 0,
                    saw_corrupt: false,
                    ft: ft.clone(),
                    app: app.clone(),
                    join: join.clone(),
                },
                base,
            );
        }
    }
}

/// One rank whose restart-time image fetch could not be reserved because
/// its source server was unreachable.
struct BlockedFetch {
    rank: usize,
    node: NodeId,
    /// Replica nodes holding the image, tried in order.
    sources: Vec<NodeId>,
    delayed_sends: Vec<AppMsg>,
    /// Wave being restored (for digest verification and tracing).
    wave: u64,
    /// Digest the fetched image must hash to.
    expected: u64,
}

/// Shared completion state for the blocked fetches of one restart: the wave
/// timer re-arms when the last one reserves its transfer.
struct FetchJoin {
    remaining: usize,
    latest_ready: SimTime,
}

/// State carried by one fetch probe chain.
struct FetchProbe {
    handle: Weak<RefCell<World>>,
    epoch: u64,
    fetch: BlockedFetch,
    /// Replica currently being probed.
    src_idx: usize,
    /// Consecutive failed probes against `sources[src_idx]`.
    attempt: u32,
    /// Whether this chain walked past at least one damaged replica — the
    /// successful fetch then counts as a repair.
    saw_corrupt: bool,
    ft: FtConfig,
    app: AppFn,
    join: Rc<RefCell<FetchJoin>>,
}

/// Schedule the respawn of rank `r` at `ready`: launch its delayed sends
/// under the new epoch and spawn the process. Exactly the tail of the
/// classic restart path, shared by the synchronous and the probe-chain
/// fetch.
fn schedule_respawn(
    sc: &SimCtx,
    handle: Weak<RefCell<World>>,
    epoch: u64,
    r: usize,
    ready: SimTime,
    delayed_sends: Vec<AppMsg>,
    app: AppFn,
) {
    sc.schedule(ready, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        {
            let mut w = world.borrow_mut();
            if w.rt.epoch != epoch {
                return;
            }
            for mut m in delayed_sends {
                m.epoch = epoch;
                w.rt.launch_send(sc, m);
            }
        }
        spawn_rank(sc, &world, r, app);
    });
}

/// One probe of a blocked image fetch, on the destination node's flow lane
/// (it races flow chunks and fault transitions touching the same node).
///
/// Reachable source → verify the replica's digest; intact → reserve the
/// transfer, schedule the respawn, update the join (re-arming the wave
/// timer if this was the last blocked fetch). A replica that fails
/// verification is a typed detection — counted, traced, fed to the
/// quarantine threshold — and the chain walks to the next replica
/// immediately (no point retrying damaged bits). Unreachable → back off
/// exponentially; after `link_retry_limit` failed probes move to the next
/// replica; after the last replica, record a fatal error and stop the
/// simulation — a job whose every image replica sits behind a partition
/// that never heals (or is damaged) must terminate, not hang.
fn schedule_fetch_probe(sc: &SimCtx, p: FetchProbe, at: SimTime) {
    let lane = Some(flow_lane(p.fetch.node));
    sc.schedule_keyed(at, lane, move |sc| {
        let Some(world) = p.handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        if w.rt.epoch != p.epoch || w.rt.job_complete() {
            return; // a newer restart owns recovery now
        }
        let FetchProbe {
            handle,
            epoch,
            fetch,
            mut src_idx,
            mut attempt,
            mut saw_corrupt,
            ft,
            app,
            join,
        } = p;
        let source = fetch.sources.get(src_idx).copied();
        // Round-trip reachability: the fetch request goes rank → server,
        // the image comes back server → rank. A one-directional cut on
        // either leg keeps the fetch blocked (no double-fetch across a
        // half-open partition).
        let reachable = source.is_some_and(|s| {
            w.rt.net.reachable(s, fetch.node) && w.rt.net.reachable(fetch.node, s)
        });
        if !reachable {
            w.rt.stats.link_retries += 1;
            // The backoff ladder restarts per replica: delay(0), delay(1),
            // … delay(limit-1), then the next source gets a fresh ladder.
            let delay = ft.link_retry_delay(attempt);
            attempt += 1;
            if source.is_none() || attempt >= ft.link_retry_limit.max(1) {
                if source.is_some() {
                    if let Some(co) = coordinated(&mut w) {
                        co.stats.retries_exhausted += 1;
                    }
                }
                src_idx += 1;
                attempt = 0;
            }
            if src_idx >= fetch.sources.len() {
                w.rt.record_fatal(&format!(
                    "restart of rank {}: every image replica unreachable after retries",
                    fetch.rank
                ));
                sc.request_stop();
                return;
            }
            drop(w);
            schedule_fetch_probe(
                sc,
                FetchProbe {
                    handle,
                    epoch,
                    fetch,
                    src_idx,
                    attempt,
                    saw_corrupt,
                    ft,
                    app,
                    join,
                },
                sc.now() + delay,
            );
            return;
        }
        let Some(source) = source else {
            return; // unreachable by construction: reachable implies a source
        };
        // Verify-on-fetch: the replica must hash to the digest the wave
        // record implies before the restore commits to it. Damage is a
        // typed detection that feeds the quarantine threshold.
        let verdict = coordinated(&mut w).map(|co| {
            let verdict = co
                .store
                .verify_replica(fetch.wave, fetch.rank, source, fetch.expected)
                .map(|_| ());
            let mut quarantined = false;
            if let Err(StoreError::CorruptImage { .. }) = verdict {
                co.stats.images_corrupt_detected += 1;
                let seen = co.store.note_corruption(source);
                quarantined = ft.quarantine_threshold > 0
                    && seen >= ft.quarantine_threshold
                    && co.store.quarantine_server(source);
                if quarantined {
                    co.stats.servers_quarantined += 1;
                }
            }
            (verdict, quarantined)
        });
        if let Some((Err(err), quarantined)) = verdict {
            if matches!(err, StoreError::CorruptImage { .. }) {
                saw_corrupt = true;
                sc.trace_proto(ftmpi_sim::ProtoEvent::CorruptDetected {
                    wave: fetch.wave,
                    rank: fetch.rank,
                    node: source.0 as u64,
                });
                if quarantined {
                    sc.trace_proto(ftmpi_sim::ProtoEvent::Quarantine {
                        node: source.0 as u64,
                    });
                }
            }
            // NoReplica: the holder dropped the copy after the restore was
            // planned (it died mid-walk) — walk on without blaming a disk.
            // Either way the next replica gets a fresh backoff ladder.
            src_idx += 1;
            attempt = 0;
            if src_idx >= fetch.sources.len() {
                w.rt.record_fatal(&format!(
                    "restart of rank {}: every image replica corrupt, missing, or unreachable",
                    fetch.rank
                ));
                sc.request_stop();
                return;
            }
            drop(w);
            schedule_fetch_probe(
                sc,
                FetchProbe {
                    handle,
                    epoch,
                    fetch,
                    src_idx,
                    attempt,
                    saw_corrupt,
                    ft,
                    app,
                    join,
                },
                sc.now(),
            );
            return;
        }
        if let Some(co) = coordinated(&mut w) {
            if src_idx > 0 {
                co.stats.images_rerouted += 1;
                co.stats.replica_depth_max = co.stats.replica_depth_max.max(src_idx as u64);
            }
            if saw_corrupt {
                // The walk recovered past damaged bits to a verified copy.
                co.stats.images_repaired += 1;
            }
        }
        if verdict.is_some() {
            sc.trace_proto(ftmpi_sim::ProtoEvent::RestoreImage {
                wave: fetch.wave,
                rank: fetch.rank,
                node: source.0 as u64,
            });
        }
        let ready =
            w.rt.net
                .transfer(source, fetch.node, ft.image_bytes, sc.now())
                .delivered;
        schedule_respawn(
            sc,
            handle.clone(),
            epoch,
            fetch.rank,
            ready,
            fetch.delayed_sends,
            app,
        );
        let rearm_at = {
            let mut j = join.borrow_mut();
            j.remaining -= 1;
            j.latest_ready = j.latest_ready.max(ready);
            (j.remaining == 0).then_some(j.latest_ready)
        };
        if let Some(latest) = rearm_at {
            let (engine, rt) = split(&mut w);
            if let Some(co) = engine.coordinated() {
                co.arm_timer(rt, sc, latest + ft.period);
            }
        }
    });
}

/// Tiebreak lane for scrub ticks. The scrubber is a fleet-wide background
/// service whose wakeups race flow chunks and fault transitions; the lane
/// (bit 62 alone) is disjoint from flow lanes (bit 63 | node), fault lanes
/// (bits 63|62 | idx), and process lanes (small integers).
const SCRUB_LANE: u64 = 1 << 62;

/// Arm the background scrub service: every `interval` the scrubber
/// re-verifies every retained replica's digest against its wave record,
/// launches a re-replication flow from a verified good copy over each
/// damaged one, and feeds the quarantine threshold. Meaningful for
/// coordinated engines only (a tick finds nothing to scan otherwise). The
/// service belongs to the checkpoint fleet, not the job epoch — it
/// survives restarts and stands down only when the job completes.
pub fn arm_scrubber(sc: &SimCtx, world: &WorldRef, interval: SimDuration) {
    let handle = world.borrow_mut().rt.world_handle();
    schedule_scrub_tick(sc, handle, interval, sc.now() + interval);
}

fn schedule_scrub_tick(
    sc: &SimCtx,
    handle: Weak<RefCell<World>>,
    interval: SimDuration,
    at: SimTime,
) {
    sc.schedule_keyed(at, Some(SCRUB_LANE), move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        {
            let mut w = world.borrow_mut();
            if w.rt.job_complete() {
                return;
            }
            scrub_pass(&mut w, sc);
        }
        let handle = world.borrow_mut().rt.world_handle();
        schedule_scrub_tick(sc, handle, interval, sc.now() + interval);
    });
}

/// One repair the scrub pass decided on: overwrite the damaged replica of
/// (wave, rank) on `node` by streaming `bytes` from the verified copy on
/// `src`.
struct ScrubRepair {
    wave: u64,
    rank: usize,
    node: NodeId,
    expected: u64,
    src: NodeId,
    bytes: u64,
}

/// What one scrub scan decided: damaged `(wave, rank, holder)` slots to
/// trace, servers that crossed the quarantine threshold, and the repairs
/// to launch.
type ScrubFindings = (Vec<(u64, usize, NodeId)>, Vec<NodeId>, Vec<ScrubRepair>);

/// One scrub pass over the engine's retained waves: account and trace the
/// damage, then launch one bounded re-replication flow per damaged copy.
/// The repair write lands only if, when the stream completes, the slot is
/// still retained, still damaged (an earlier repair may have won), and the
/// target still takes writes — checked when the stream completes.
fn scrub_pass(w: &mut World, sc: &SimCtx) {
    let Some(co) = coordinated(w) else {
        return;
    };
    let (chunk, retry) = (co.cfg.chunk_bytes, FlowRetry::bounded(&co.cfg));
    let (detections, quarantines, repairs) = co.scrub_scan();
    for &(wave, rank, node) in &detections {
        sc.trace_proto(ftmpi_sim::ProtoEvent::CorruptDetected {
            wave,
            rank,
            node: node.0 as u64,
        });
    }
    for &node in &quarantines {
        sc.trace_proto(ftmpi_sim::ProtoEvent::Quarantine {
            node: node.0 as u64,
        });
    }
    for job in repairs {
        let ScrubRepair {
            wave,
            rank,
            node,
            expected,
            src,
            bytes,
        } = job;
        let spec = FlowSpec {
            src,
            dst: node,
            bytes,
            chunk,
            also_disk: false,
        };
        start_flow_guarded(
            &mut w.rt,
            sc,
            spec,
            retry,
            // Target unreachable past the retry budget: surrender — the
            // next tick re-detects and tries again.
            |_, _| {},
            move |w, sc, done| {
                let Some(co) = coordinated(w) else {
                    return;
                };
                let s = &mut co.store;
                if !s.server_holds(wave, rank, node) {
                    return; // wave GC'd or the holder died mid-repair
                }
                if s.verify_replica(wave, rank, node, expected).is_ok() {
                    return; // an earlier repair already landed
                }
                let recorded = s.record_image(
                    wave,
                    rank,
                    StoredImage {
                        server: node,
                        bytes,
                        stored_at: done,
                        digest: expected,
                    },
                );
                if recorded {
                    co.stats.images_repaired += 1;
                    sc.trace_proto(ftmpi_sim::ProtoEvent::Repair {
                        wave,
                        rank,
                        node: node.0 as u64,
                    });
                    sc.trace_proto(ftmpi_sim::ProtoEvent::ImageStore {
                        wave,
                        rank,
                        node: node.0 as u64,
                    });
                }
            },
        );
    }
}

/// Apply a named partition cut and, if the job runs with a heartbeat grace
/// window (`FtConfig::partition_rollback_after`), arm the watchdog that
/// decides — one grace later — whether the cut was real.
///
/// The watchdog fires on the dispatcher's side of the cut:
///
/// * partition already healed → **false positive suppressed**: the stalled
///   heartbeats arrived late, nobody is declared failed, no rollback
///   (`FtStats::partitions_suppressed` counts the non-event);
/// * a restart happened in between (epoch guard) → that recovery's probe
///   chains already own the fault; the watchdog stands down;
/// * partition still active → the grace window *expired*
///   (`FtStats::partitions_expired`): every rank cut off from the service
///   node is declared failed and the job restarts once, correlated
///   ([`CheckpointEngine::restart`]). A cut that isolates only servers (no
///   ranks on the far side) expires without victims — the watchdog stands
///   down and the stalled pushes keep walking their retry ladders.
///
/// Without a grace window the cut is applied but never escalates: flows
/// and heartbeats stall until the partition heals. Engines outside the
/// heartbeat model ([`CheckpointEngine::heartbeat_detected`]) get no
/// watchdog.
///
/// Directed cuts arm the same watchdog: a half-open partition stalls one
/// direction of the heartbeat round-trip, which is indistinguishable from
/// a full cut at the dispatcher.
#[allow(clippy::too_many_arguments)] // a scheduling entry point, not a recursion
pub fn partition_cut(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    ft: &FtConfig,
    name: &str,
    nodes: &[NodeId],
    direction: ftmpi_net::CutDirection,
    tear: bool,
    service_node: NodeId,
) {
    let (handle, epoch, watched) = {
        let mut w = world.borrow_mut();
        w.rt.net
            .start_partition_with(name, nodes.iter().copied(), direction, tear);
        let watched = split(&mut w).0.heartbeat_detected();
        (w.rt.world_handle(), w.rt.epoch, watched)
    };
    let Some(grace) = ft.partition_rollback_after else {
        return;
    };
    if !watched {
        return;
    }
    let name = name.to_string();
    let nodes = nodes.to_vec();
    let app = app.clone();
    let ft = ft.clone();
    sc.schedule(sc.now() + grace, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        if w.rt.job_complete() || w.rt.epoch != epoch {
            return;
        }
        let healed = !w.rt.net.partition_active(&name);
        if let Some(co) = coordinated(&mut w) {
            if healed {
                co.stats.partitions_suppressed += 1;
            } else {
                co.stats.partitions_expired += 1;
            }
        }
        if healed {
            // Healed inside the grace window: heartbeats were merely late.
            // Zero rollbacks — the epoch-guard analogue of the
            // detection-delay false-positive suppression.
            return;
        }
        let service_cut = nodes.contains(&service_node);
        let victims: Vec<usize> = (0..w.rt.size())
            .filter(|&r| nodes.contains(&w.rt.placement.node_of(r)) != service_cut)
            .collect();
        if victims.is_empty() {
            return;
        }
        let (engine, rt) = split(&mut w);
        engine.restart(rt, sc, &app, &victims, &ft);
    });
}
