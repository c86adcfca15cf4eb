//! The runtime core: per-rank state, the matching engine, and message
//! injection/delivery mechanics shared by all protocols.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Weak;

use ftmpi_net::{NetModel, NodeId};
use ftmpi_sim::{Pid, Reply, SimCtx, SimDuration, SimTime};

use crate::config::RuntimeConfig;
use crate::placement::Placement;
use crate::types::{AppMsg, Rank, RecvInfo, Tag};
use crate::world::World;

/// Life-cycle state of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStatus {
    /// Application code running (or parked in the library).
    Running,
    /// Application code returned (reached finalize).
    Finished,
    /// Killed by a failure and not yet restarted.
    Dead,
}

/// Where a matched message should be delivered.
pub(crate) enum RecvSink {
    /// A blocking receive: complete the parked application thread.
    Blocking(Reply<RecvInfo>),
    /// A nonblocking request: fill the request slot (and wake a waiter).
    Request(u64),
}

pub(crate) struct PostedRecv {
    pub src: Option<Rank>,
    pub tag: Option<Tag>,
    pub sink: RecvSink,
    /// Extra completion delay (fork pauses, progress-engine drag) charged
    /// to the operation that posted this receive.
    pub delay: SimDuration,
}

#[derive(Default)]
pub(crate) struct ReqState {
    /// Completion record: receive info, completion time, and the matched
    /// message with its arrival index (needed to snapshot still-unconsumed
    /// messages into checkpoint images).
    pub done: Option<DoneRec>,
    /// Application thread parked in `wait` on this request.
    pub waiter: Option<Reply<RecvInfo>>,
}

pub(crate) struct DoneRec {
    pub info: RecvInfo,
    pub at: SimTime,
    pub arrival_idx: u64,
    pub msg: AppMsg,
}

/// Per-rank runtime state.
pub struct RankState {
    /// Node hosting this rank.
    pub node: NodeId,
    /// Simulated process currently running the rank (None between restarts).
    pub pid: Option<Pid>,
    /// Life-cycle state.
    pub status: RankStatus,
    /// Completed application operations (kernel-interacting ops only);
    /// recorded into checkpoint images.
    pub ops_completed: u64,
    /// Local time of the rank's most recent runtime interaction.
    pub last_entry: SimTime,
    /// True while the rank's thread is parked inside a blocking op —
    /// i.e. the progress engine is running and control traffic can be
    /// handled immediately (relevant to the blocking protocol).
    pub blocked_in_lib: bool,
    /// Ops to skip-replay after a restart (0 in normal operation).
    pub skip_ops: u64,
    /// Compute time already performed before the checkpoint within the
    /// first non-skipped compute phases (credited back on replay).
    pub time_credit: SimDuration,
    /// One-shot delay added to the rank's next operation (fork pauses).
    pub pending_penalty: SimDuration,
    /// Standing per-operation delay while the rank's progress engine is
    /// time-shared with a checkpoint image stream (blocking protocol).
    pub op_drag: SimDuration,
    /// Matching engine: receives posted and waiting for a message.
    pub(crate) posted: VecDeque<PostedRecv>,
    /// Matching engine: arrived messages not yet matched, with their
    /// arrival indices.
    pub(crate) unexpected: VecDeque<(u64, AppMsg)>,
    /// Monotonic per-rank arrival counter (orders image snapshots).
    pub(crate) arrival_counter: u64,
    /// Nonblocking request table.
    pub(crate) requests: HashMap<u64, ReqState>,
    pub(crate) next_req_id: u64,
    /// Next app sequence number per destination rank. Sparse: a missing
    /// entry means 0, so a rank only pays for peers it actually talks to —
    /// dense per-peer vectors are O(n²) across the job and at 10⁵ ranks
    /// would dwarf every other runtime structure.
    pub(crate) next_seq_to: HashMap<Rank, u64>,
    /// Next expected sequence number per source rank (duplicate
    /// suppression for single-rank-restart protocols; only consulted when
    /// `RuntimeCore::suppress_duplicate_seq` is set). Sparse like
    /// `next_seq_to`: a missing entry means 0.
    pub(crate) expect_seq_from: HashMap<Rank, u64>,
    /// Local time at which the rank posted its current blocking operation
    /// (valid while `blocked_in_lib`); bounds checkpoint time credits.
    pub last_post: SimTime,
    /// Bumped on every (global or single-rank) restart of this rank; lets
    /// per-rank timers and in-flight per-rank events detect staleness.
    pub incarnation: u64,
}

impl RankState {
    fn new(node: NodeId) -> RankState {
        RankState {
            node,
            pid: None,
            status: RankStatus::Running,
            ops_completed: 0,
            last_entry: SimTime::ZERO,
            blocked_in_lib: false,
            skip_ops: 0,
            time_credit: SimDuration::ZERO,
            pending_penalty: SimDuration::ZERO,
            op_drag: SimDuration::ZERO,
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            arrival_counter: 0,
            requests: HashMap::new(),
            next_req_id: 0,
            next_seq_to: HashMap::new(),
            expect_seq_from: HashMap::new(),
            last_post: SimTime::ZERO,
            incarnation: 0,
        }
    }

    /// One-line state dump for diagnostics.
    pub fn debug_summary(&self) -> String {
        let unexp: Vec<String> = self
            .unexpected
            .iter()
            .take(4)
            .map(|(_, m)| format!("({}t{}#{})", m.src, m.tag, m.seq))
            .collect();
        let posted: Vec<String> = self
            .posted
            .iter()
            .take(4)
            .map(|p| format!("({:?} t{:?})", p.src, p.tag))
            .collect();
        format!(
            "{:?} ops={} skip={} blocked={} unexpected={}{:?} posted={}{:?} reqs={}",
            self.status,
            self.ops_completed,
            self.skip_ops,
            self.blocked_in_lib,
            self.unexpected.len(),
            unexp,
            self.posted.len(),
            posted,
            self.requests.len()
        )
    }

    /// Reset communication state for a restart, keeping node assignment.
    /// `skip_ops` and `time_credit` come from the restored image.
    pub fn reset_for_restart(&mut self, skip_ops: u64, time_credit: SimDuration) {
        self.pid = None;
        self.status = RankStatus::Running;
        // Operation counting stays aligned with the application's total
        // logical progress: skip-replayed ops never reach the kernel, so
        // the counter resumes from the restored baseline. (A checkpoint
        // taken after this restart must record total progress, or a later
        // restore from it would roll the rank back to the wrong point.)
        self.ops_completed = skip_ops;
        self.blocked_in_lib = false;
        self.skip_ops = skip_ops;
        self.time_credit = time_credit;
        self.pending_penalty = SimDuration::ZERO;
        self.op_drag = SimDuration::ZERO;
        self.posted.clear();
        self.unexpected.clear();
        self.requests.clear();
        self.next_req_id = 0;
        self.incarnation += 1;
        self.next_seq_to.clear();
        // `expect_seq_from` is deliberately *not* reset: duplicate
        // suppression must remember what was delivered before the restart
        // (single-rank-restart protocols restore the watermarks from the
        // image; the coordinated protocols never enable suppression).
    }
}

/// Counters accumulated over a run.
#[derive(Debug, Default, Clone)]
pub struct RuntimeStats {
    /// Application messages injected into the network.
    pub msgs_sent: u64,
    /// Application bytes injected.
    pub bytes_sent: u64,
    /// Application messages delivered to the matching engine.
    pub msgs_delivered: u64,
    /// Ranks that reached finalize in the current epoch.
    pub finished_ranks: usize,
    /// Virtual time at which all ranks finished (job completion).
    pub completion_time: Option<SimTime>,
    /// Number of failure-restarts performed.
    pub restarts: u64,
    /// Backoff probes scheduled because a checkpoint stream, control
    /// message, or restore fetch found its destination unreachable (link
    /// down or partition). Zero whenever no network faults are scheduled.
    pub link_retries: u64,
}

/// Regression fixtures for the schedule explorer: each re-opens one of the
/// two real races PR 2's perturbation detector caught (and tiebreak lanes
/// fixed), so `ftmpi-check explore` can prove it rediscovers them and
/// minimizes a reproducer. Default `None` everywhere — ordinary runs never
/// take a fixture branch, keeping all figure outputs byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceFixture {
    /// Schedule marker arrivals laneless: a marker racing a same-instant
    /// data delivery at one rank loses its defined channel order, flipping
    /// Vcl's logged-message set (the original race's symptom).
    LanelessMarkers,
    /// Start flows unstaggered and laneless: same-instant transfer starts
    /// on one server arbitrate in whatever order the scheduler picks,
    /// perturbing delivery timing (the original flow-arbitration race).
    UnstaggeredFlows,
}

/// The protocol-independent runtime: network, placement, ranks, stats.
pub struct RuntimeCore {
    /// The platform model.
    pub net: NetModel,
    /// Per-message software costs and stack selection.
    pub cfg: RuntimeConfig,
    /// Rank-to-node mapping.
    pub placement: Placement,
    /// Per-rank state, indexed by rank.
    pub ranks: Vec<RankState>,
    /// Job incarnation; bumped on every *global* failure-restart.
    pub epoch: u64,
    /// Drop application messages whose per-channel sequence number was
    /// already delivered (single-rank-restart protocols re-execute sends).
    pub suppress_duplicate_seq: bool,
    /// Counters.
    pub stats: RuntimeStats,
    /// First fatal error hit inside a scheduled event (failure-path routing
    /// bugs that have no caller to return to). The runner surfaces it as a
    /// job error after the simulation drains.
    pub fatal_error: Option<String>,
    /// Active explorer regression fixture, if any (see [`RaceFixture`]).
    pub race_fixture: Option<RaceFixture>,
    /// Back-reference for scheduling world events from core methods.
    pub(crate) world: Weak<RefCell<World>>,
}

impl RuntimeCore {
    /// Build a runtime over a platform and placement.
    pub fn new(net: NetModel, placement: Placement, cfg: RuntimeConfig) -> RuntimeCore {
        let nranks = placement.ranks();
        let ranks = (0..nranks)
            .map(|r| RankState::new(placement.node_of(r)))
            .collect();
        RuntimeCore {
            net,
            cfg,
            placement,
            ranks,
            epoch: 0,
            suppress_duplicate_seq: false,
            stats: RuntimeStats::default(),
            fatal_error: None,
            race_fixture: None,
            world: Weak::new(),
        }
    }

    /// Record a fatal error (first one wins).
    pub fn record_fatal(&mut self, msg: &str) {
        self.fatal_error.get_or_insert_with(|| msg.to_string());
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Weak handle to the world, for scheduling events from protocol code.
    pub fn world_handle(&self) -> Weak<RefCell<World>> {
        self.world.clone()
    }

    /// Has the job completed (all ranks finished)?
    pub fn job_complete(&self) -> bool {
        self.stats.completion_time.is_some()
    }

    /// Consume the rank's pending one-shot penalty (fork pause).
    pub fn take_penalty(&mut self, rank: Rank) -> SimDuration {
        std::mem::take(&mut self.ranks[rank].pending_penalty)
    }

    /// Add a one-shot penalty to the rank's next operation.
    pub fn add_penalty(&mut self, rank: Rank, d: SimDuration) {
        self.ranks[rank].pending_penalty += d;
    }

    /// Inject an application message into the network and schedule its
    /// arrival at the destination runtime. Also used by protocols to release
    /// held (delayed) sends.
    pub fn launch_send(&mut self, sc: &SimCtx, msg: AppMsg) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += msg.bytes;
        sc.trace_proto(ftmpi_sim::ProtoEvent::Send {
            src: msg.src,
            dst: msg.dst,
            seq: msg.seq,
            bytes: msg.bytes,
            epoch: msg.epoch,
        });
        let src_node = self.placement.node_of(msg.src);
        let dst_node = self.placement.node_of(msg.dst);
        let penalty = self.cfg.profile.message_penalty(msg.bytes);
        let delivery =
            self.net
                .transfer_with_overhead(src_node, dst_node, msg.bytes, sc.now(), penalty);
        let arrive_at = delivery.delivered;
        let world = self.world.clone();
        let epoch = self.epoch;
        // Keyed by the destination process: a data arrival racing a marker
        // or wakeup at the same rank has defined order (channel FIFO), which
        // the tiebreak perturbation must not scramble.
        let lane = self.ranks[msg.dst].pid.map(ftmpi_sim::Pid::lane);
        sc.schedule_keyed(arrive_at, lane, move |sc| {
            let Some(world) = world.upgrade() else { return };
            let mut w = world.borrow_mut();
            if w.rt.epoch != epoch {
                return; // in-flight message from before a restart
            }
            w.handle_arrival(sc, msg);
        });
    }

    /// Hand an arrived (or replayed) message to the matching engine,
    /// bypassing protocol hooks. Completion replies fire at
    /// `now + recv_overhead`.
    pub fn deliver_to_matching(&mut self, sc: &SimCtx, msg: AppMsg) {
        if self.suppress_duplicate_seq {
            let rank = &mut self.ranks[msg.dst];
            let e = rank.expect_seq_from.entry(msg.src).or_insert(0);
            if msg.seq < *e {
                return; // replayed duplicate of an already-delivered message
            }
            *e = msg.seq + 1;
        }
        self.stats.msgs_delivered += 1;
        sc.trace_proto(ftmpi_sim::ProtoEvent::Deliver {
            src: msg.src,
            dst: msg.dst,
            seq: msg.seq,
            epoch: msg.epoch,
        });
        let o_recv = self.cfg.profile.recv_overhead;
        let rank = &mut self.ranks[msg.dst];
        let arrival_idx = rank.arrival_counter;
        rank.arrival_counter += 1;
        // Find the first posted receive matching (src, tag), in post order.
        let pos = rank.posted.iter().position(|p| {
            p.src.map(|s| s == msg.src).unwrap_or(true)
                && p.tag.map(|t| t == msg.tag).unwrap_or(true)
        });
        let info = RecvInfo {
            src: msg.src,
            tag: msg.tag,
            bytes: msg.bytes,
        };
        match pos {
            None => rank.unexpected.push_back((arrival_idx, msg)),
            Some(i) => {
                let posted = rank.posted.remove(i).expect("index valid");
                let complete_at = sc.now() + o_recv + posted.delay;
                match posted.sink {
                    RecvSink::Blocking(reply) => {
                        // The blocking-recv op completes here.
                        rank.ops_completed += 1;
                        rank.last_entry = complete_at;
                        rank.blocked_in_lib = false;
                        reply.complete_at(sc, complete_at, info);
                    }
                    RecvSink::Request(req_id) => {
                        let req = rank.requests.entry(req_id).or_default();
                        let had_waiter = req.waiter.is_some();
                        req.done = Some(DoneRec {
                            info,
                            at: complete_at,
                            arrival_idx,
                            msg,
                        });
                        if had_waiter {
                            // The parked wait op completes here.
                            let req = rank.requests.remove(&req_id).expect("present");
                            let waiter = req.waiter.expect("had waiter");
                            rank.ops_completed += 1;
                            rank.last_entry = complete_at;
                            rank.blocked_in_lib = false;
                            waiter.complete_at(sc, complete_at, info);
                        }
                    }
                }
            }
        }
    }

    /// Deliver a message restored from a checkpoint image or log: bypasses
    /// duplicate suppression (the message predates the tracking state being
    /// rebuilt) while still advancing the expected-sequence watermark so
    /// later *network* duplicates are caught.
    pub fn inject_restored(&mut self, sc: &SimCtx, msg: AppMsg) {
        sc.trace_proto(ftmpi_sim::ProtoEvent::Replay {
            src: msg.src,
            dst: msg.dst,
            seq: msg.seq,
            epoch: msg.epoch,
        });
        {
            let rank = &mut self.ranks[msg.dst];
            let e = rank.expect_seq_from.entry(msg.src).or_insert(0);
            *e = (*e).max(msg.seq + 1);
        }
        let suppress = std::mem::replace(&mut self.suppress_duplicate_seq, false);
        self.deliver_to_matching(sc, msg);
        self.suppress_duplicate_seq = suppress;
    }

    /// Compute the time credit to record in a checkpoint image: the local
    /// compute the rank performed after its last completed operation. A
    /// rank parked in a blocking op has done nothing since it *posted*
    /// that op, so the credit is bounded by the posting time — waiting
    /// time is not compute.
    pub fn capture_credit(&self, rank: Rank, now: SimTime) -> SimDuration {
        let rs = &self.ranks[rank];
        if rs.blocked_in_lib {
            rs.last_post.saturating_since(rs.last_entry)
        } else {
            now.saturating_since(rs.last_entry)
        }
    }

    /// Current duplicate-suppression watermarks of a rank (image capture).
    /// Sparse and sorted by peer so images are deterministic byte-for-byte.
    pub fn expect_seq_snapshot(&self, rank: Rank) -> Vec<(Rank, u64)> {
        sorted_seq_pairs(&self.ranks[rank].expect_seq_from)
    }

    /// Current per-destination send sequence counters (image capture —
    /// restored so a rolled-back rank's re-executed sends continue the
    /// sequence its peers already advanced through). Sparse and sorted.
    pub fn send_seq_snapshot(&self, rank: Rank) -> Vec<(Rank, u64)> {
        sorted_seq_pairs(&self.ranks[rank].next_seq_to)
    }

    /// Restore per-destination send sequence counters (image restore).
    pub fn set_send_seq(&mut self, rank: Rank, counters: Vec<(Rank, u64)>) {
        self.ranks[rank].next_seq_to = counters.into_iter().collect();
    }

    /// Restore duplicate-suppression watermarks (image restore).
    pub fn set_expect_seq(&mut self, rank: Rank, watermarks: Vec<(Rank, u64)>) {
        self.ranks[rank].expect_seq_from = watermarks.into_iter().collect();
    }

    /// Snapshot messages that reached this rank's runtime but have not been
    /// consumed by the application: the unexpected queue plus messages
    /// matched to nonblocking requests whose `wait` has not completed.
    /// These belong to a system-level checkpoint image (daemon / library
    /// memory) and are re-injected at restart, in arrival order.
    pub fn snapshot_pending(&self, rank: Rank) -> Vec<AppMsg> {
        let r = &self.ranks[rank];
        let mut pending: Vec<(u64, AppMsg)> = r.unexpected.iter().cloned().collect();
        for req in r.requests.values() {
            if let Some(done) = &req.done {
                pending.push((done.arrival_idx, done.msg.clone()));
            }
        }
        pending.sort_by_key(|(idx, _)| *idx);
        pending.into_iter().map(|(_, m)| m).collect()
    }

    /// Post a receive: match an already-arrived message or queue the sink.
    /// Returns true if the receive completed immediately.
    pub(crate) fn post_recv_sink(
        &mut self,
        sc: &SimCtx,
        dst: Rank,
        src: Option<Rank>,
        tag: Option<Tag>,
        sink: RecvSink,
        delay: SimDuration,
    ) -> bool {
        let o_recv = self.cfg.profile.recv_overhead + delay;
        let rank = &mut self.ranks[dst];
        let pos = rank.unexpected.iter().position(|(_, m)| {
            src.map(|s| s == m.src).unwrap_or(true) && tag.map(|t| t == m.tag).unwrap_or(true)
        });
        match pos {
            Some(i) => {
                let (arrival_idx, msg) = rank.unexpected.remove(i).expect("index valid");
                let info = RecvInfo {
                    src: msg.src,
                    tag: msg.tag,
                    bytes: msg.bytes,
                };
                let complete_at = sc.now() + o_recv;
                match sink {
                    RecvSink::Blocking(reply) => {
                        rank.ops_completed += 1;
                        rank.last_entry = complete_at;
                        reply.complete_at(sc, complete_at, info);
                    }
                    RecvSink::Request(req_id) => {
                        // The irecv op is counted by its posting handler;
                        // the completion record waits for a later `wait`.
                        let req = rank.requests.entry(req_id).or_default();
                        req.done = Some(DoneRec {
                            info,
                            at: complete_at,
                            arrival_idx,
                            msg,
                        });
                    }
                }
                true
            }
            None => {
                rank.posted.push_back(PostedRecv {
                    src,
                    tag,
                    sink,
                    delay,
                });
                false
            }
        }
    }

    /// Post-run audit: `(unconsumed arrived messages, unmatched posted
    /// receives)` across all ranks. Both are zero after a clean run of a
    /// well-formed application — including runs with failure-restarts,
    /// where nonzero values indicate a broken recovery cut.
    pub fn leftover_messages(&self) -> (usize, usize) {
        let unexpected = self.ranks.iter().map(|r| r.unexpected.len()).sum();
        let posted = self.ranks.iter().map(|r| r.posted.len()).sum();
        (unexpected, posted)
    }

    /// Next per-channel sequence number for `src → dst`.
    pub(crate) fn next_seq(&mut self, src: Rank, dst: Rank) -> u64 {
        let s = self.ranks[src].next_seq_to.entry(dst).or_insert(0);
        let v = *s;
        *s += 1;
        v
    }
}

/// Flatten a sparse per-peer counter map into `(peer, value)` pairs sorted
/// by peer, dropping zero entries (a missing key already means 0). Sorting
/// keeps image contents independent of hash-map iteration order.
fn sorted_seq_pairs(map: &HashMap<Rank, u64>) -> Vec<(Rank, u64)> {
    let mut pairs: Vec<(Rank, u64)> = map
        .iter()
        .filter(|(_, &v)| v != 0)
        .map(|(&k, &v)| (k, v))
        .collect();
    pairs.sort_unstable();
    pairs
}
